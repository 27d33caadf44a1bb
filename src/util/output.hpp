/**
 * @file
 * The one decision on whether a result reached its reader. Each result
 * file is written through write_file(), and every front end (artmem,
 * the bench harnesses, the examples) returns from main through
 * finish_stdout(). A failed open, write or close fatal()s naming where
 * the output went, so a truncated result never passes as a completed
 * run.
 */
#ifndef ARTMEM_UTIL_OUTPUT_HPP
#define ARTMEM_UTIL_OUTPUT_HPP

#include <functional>
#include <iosfwd>
#include <string>

namespace artmem {

/**
 * Open @p path for writing, run @p body on the stream, then close it;
 * fatal(), naming @p path, if the open, any write or the close failed
 * (a full disk only surfaces once the buffer reaches the OS).
 */
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body);

/**
 * Flush std::cout and return main's exit status 0; fatal() if any
 * write to it failed. A failed write leaves the stream bad for good,
 * so this one check at exit covers every table and line printed
 * before it.
 */
int finish_stdout();

}  // namespace artmem

#endif  // ARTMEM_UTIL_OUTPUT_HPP
