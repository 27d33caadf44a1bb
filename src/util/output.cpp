#include "util/output.hpp"

#include <fstream>
#include <iostream>

#include "util/logging.hpp"

namespace artmem {

void
write_file(const std::string& path,
           const std::function<void(std::ostream&)>& body)
{
    // A stream that failed to open ignores the writes and stays failed,
    // so the one check after the close covers the open too.
    std::ofstream out(path);
    body(out);
    out.close();
    if (!out)
        fatal("cannot write ", path);
}

int
finish_stdout()
{
    std::cout.flush();
    if (!std::cout)
        fatal("cannot write standard output");
    return 0;
}

}  // namespace artmem
