#include "util/logging.hpp"

namespace artmem::detail {

void
emit(std::string_view tag, std::string_view msg)
{
    std::cerr << "[" << tag << "] " << msg << "\n";
}

}  // namespace artmem::detail
