#include "workloads/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.hpp"

namespace artmem::workloads {

namespace {

constexpr char kMagic[8] = {'A', 'R', 'T', 'M', 'E', 'M', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

struct Header {
    char magic[8];
    std::uint32_t version;
    std::uint32_t page_size_log2;
    std::uint64_t footprint;
    std::uint64_t count;
};

}  // namespace

TraceWriter::TraceWriter(std::unique_ptr<AccessGenerator> inner,
                         std::string path, Bytes page_size)
    : inner_(std::move(inner)),
      path_(std::move(path)),
      out_(path_, std::ios::binary)
{
    if (!inner_)
        fatal("TraceWriter requires a wrapped generator");
    if (!out_)
        fatal("TraceWriter: cannot open ", path_);
    if (!std::has_single_bit(page_size))
        fatal("TraceWriter: page size must be a power of two");
    Header header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.page_size_log2 =
        static_cast<std::uint32_t>(std::countr_zero(page_size));
    header.footprint = inner_->footprint();
    header.count = 0;  // fixed up by close()
    out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
}

void
TraceWriter::close()
{
    out_.seekp(offsetof(Header, count), std::ios::beg);
    out_.write(reinterpret_cast<const char*>(&written_), sizeof(written_));
    out_.close();
    if (!out_)
        fatal("TraceWriter: cannot write ", path_);
}

std::size_t
TraceWriter::fill(std::span<PageId> out)
{
    const std::size_t n = inner_->fill(out);
    if (n > 0) {
        out_.write(reinterpret_cast<const char*>(out.data()),
                   static_cast<std::streamsize>(n * sizeof(PageId)));
        written_ += n;
    }
    return n;
}

TraceReplay::TraceReplay(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("TraceReplay: cannot open ", path);
    Header header{};
    in.read(reinterpret_cast<char*>(&header), sizeof(header));
    if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        fatal("TraceReplay: not an ArtMem trace: ", path);
    if (header.version != kVersion)
        fatal("TraceReplay: unsupported version ", header.version);
    // Both fields size what follows, so check them against the file
    // before shifting or allocating by them.
    if (header.page_size_log2 >= 64)
        fatal("TraceReplay: ", path, ": header page_size_log2 ",
              header.page_size_log2, " is not below 64");
    in.seekg(0, std::ios::end);
    const auto payload =
        static_cast<std::uint64_t>(in.tellg()) - sizeof(header);
    in.seekg(sizeof(header), std::ios::beg);
    if (payload % sizeof(PageId) != 0 ||
        header.count != payload / sizeof(PageId))
        fatal("TraceReplay: ", path, ": header count ", header.count,
              " does not match the ", payload,
              " bytes of accesses after the header");
    footprint_ = header.footprint;
    page_size_ = Bytes{1} << header.page_size_log2;
    // The machine built for the trace spans the footprint rounded up to
    // whole pages, and every page needs a u32 id below kInvalidPage: a
    // larger footprint cannot be simulated, so refuse it before anything
    // is sized by it.
    const std::uint64_t pages = footprint_ / page_size_ +
                                (footprint_ % page_size_ != 0 ? 1 : 0);
    if (pages > kInvalidPage)
        fatal("TraceReplay: ", path, ": header footprint ", footprint_,
              " spans ", pages, " pages of ", page_size_,
              " bytes, more than the ", kInvalidPage, " page ids");
    accesses_.resize(header.count);
    in.read(reinterpret_cast<char*>(accesses_.data()),
            static_cast<std::streamsize>(header.count * sizeof(PageId)));
    if (!in)
        fatal("TraceReplay: truncated trace: ", path);
    const auto outside = std::find_if(
        accesses_.begin(), accesses_.end(),
        [pages](PageId page) { return page >= pages; });
    if (outside != accesses_.end())
        fatal("TraceReplay: ", path, ": access ",
              outside - accesses_.begin(), " names page ", *outside,
              ", at or past the footprint's ", pages, " pages");
}

std::size_t
TraceReplay::fill(std::span<PageId> out)
{
    std::size_t n = 0;
    while (n < out.size() && cursor_ < accesses_.size())
        out[n++] = accesses_[cursor_++];
    return n;
}

}  // namespace artmem::workloads
