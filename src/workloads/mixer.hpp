/**
 * @file
 * Concurrent-workload mixer for the Section 6.3.10 irregular-pattern
 * study: several child workloads run "simultaneously", their address
 * spaces stacked one after another and their access streams
 * interleaved round-robin in small quanta (a time-sliced scheduler's
 * view of co-running processes).
 */
#ifndef ARTMEM_WORKLOADS_MIXER_HPP
#define ARTMEM_WORKLOADS_MIXER_HPP

#include <memory>
#include <string>
#include <vector>

#include "workloads/generator.hpp"

namespace artmem::workloads {

/** Interleaves child generators over a stacked address space. */
class Mixer final : public AccessGenerator
{
  public:
    /**
     * @param children Child workloads (ownership taken). At least one.
     * @param quantum  Accesses per child per scheduling round.
     */
    Mixer(std::vector<std::unique_ptr<AccessGenerator>> children,
          Bytes page_size, std::size_t quantum = 256);

    std::string_view name() const override { return name_; }
    Bytes footprint() const override { return footprint_; }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override { return total_; }

  private:
    struct Child {
        std::unique_ptr<AccessGenerator> gen;
        PageId page_offset;
        bool done = false;
    };

    std::vector<Child> children_;
    std::string name_;
    Bytes footprint_ = 0;
    std::uint64_t total_ = 0;
    std::size_t quantum_;
    std::size_t turn_ = 0;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_MIXER_HPP
