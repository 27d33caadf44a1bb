/**
 * @file
 * Access-trace capture and replay.
 *
 * TraceWriter wraps any AccessGenerator and records the page-access
 * stream to a compact binary file; TraceReplay plays such a file back
 * as an AccessGenerator. This allows (a) freezing a stochastic workload
 * so different policies see the *identical* access sequence, and
 * (b) importing externally captured page traces into the harness.
 *
 * Format: 16-byte header ("ARTMEMTR", u32 version, u32 page_size_log2)
 * followed by u64 footprint, u64 count, then `count` little-endian u32
 * page ids, each below the footprint's page count (rounded up).
 */
#ifndef ARTMEM_WORKLOADS_TRACE_HPP
#define ARTMEM_WORKLOADS_TRACE_HPP

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "workloads/generator.hpp"

namespace artmem::workloads {

/** Pass-through generator that tees every access into a trace file. */
class TraceWriter final : public AccessGenerator
{
  public:
    /**
     * @param inner     Wrapped generator (ownership taken).
     * @param path      Output file; fatal if unwritable.
     * @param page_size Page size recorded in the header.
     */
    TraceWriter(std::unique_ptr<AccessGenerator> inner, std::string path,
                Bytes page_size);

    /** Flushes and finalizes the header counts. */
    ~TraceWriter() override;

    std::string_view name() const override { return inner_->name(); }
    Bytes footprint() const override { return inner_->footprint(); }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override
    {
        return inner_->total_accesses();
    }

    /** Accesses written so far. */
    std::uint64_t written() const { return written_; }

  private:
    std::unique_ptr<AccessGenerator> inner_;
    std::string path_;
    std::ofstream out_;
    std::uint64_t written_ = 0;
};

/** Replays a trace file produced by TraceWriter. */
class TraceReplay final : public AccessGenerator
{
  public:
    /**
     * Load the whole trace; fatal, naming the file, on malformed files:
     * a bad magic, version, page size or count, a footprint of more
     * pages than u32 page ids can name, or an access to a page at or
     * past the footprint (named by its index).
     */
    explicit TraceReplay(const std::string& path);

    std::string_view name() const override { return "trace"; }
    Bytes footprint() const override { return footprint_; }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override
    {
        return accesses_.size();
    }

    /** Page size the trace was captured at. */
    Bytes page_size() const { return page_size_; }

  private:
    std::vector<PageId> accesses_;
    Bytes footprint_ = 0;
    Bytes page_size_ = 0;
    std::size_t cursor_ = 0;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_TRACE_HPP
