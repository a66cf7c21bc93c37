#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// \brief What the host probe takes on the reference host (README.md): the
/// speed every reported time is scaled to.
inline constexpr double kProbeReferenceNs = 1.5e6;

/// \brief Runs the host probe, a fixed piece of benchmark-owned work of the
/// kinds a read is made of (hashing, a node-based hash map, sorting, string
/// building), once untimed to warm its caches and once timed. Returns the
/// timed pass in nanoseconds. It allocates only from its own buffer, so
/// neither the program's heap nor its allocator changes its speed.
int64_t ProbeHost();

/// \brief The host's speed along a run of ops, from probes taken before op
/// 0, before every `every`-th op after it, and after the last op.
///
/// Shared hosts change speed by tens of percent over minutes, inside runs
/// as well as between them, and the probe slows and speeds up with the
/// program (README.md). Scaling each op's time by kProbeReferenceNs over
/// the probes around it reports the op as if it had run on the reference
/// host.
class HostSpeed {
 public:
  explicit HostSpeed(size_t every) : every_(every == 0 ? 1 : every) {}

  /// \brief Call before op `i` (ops in order from 0): probes when `i` is a
  /// multiple of `every`.
  void BeforeOp(size_t i) {
    if (i % every_ == 0) probe_ns_.push_back(ProbeHost());
  }
  /// \brief Call once after the last op.
  void Finish() { probe_ns_.push_back(ProbeHost()); }

  /// \brief Factor that scales op `i`'s measured time to the reference
  /// host (ScaleAt).
  double Scale(size_t i) const { return ScaleAt(probe_ns_, every_, i); }

  const std::vector<int64_t>& probe_ns() const { return probe_ns_; }

  /// \brief Probes on each side of an op that its scale is taken from.
  static constexpr size_t kWindow = 2;

  /// \brief kProbeReferenceNs over the median of the kWindow probes on
  /// each side of op `i`'s gap between probes, for probes taken as
  /// BeforeOp and Finish take them (1 when there are none).
  static double ScaleAt(const std::vector<int64_t>& probe_ns, size_t every,
                        size_t i);

 private:
  size_t every_;
  std::vector<int64_t> probe_ns_;
};

/// \brief kProbeReferenceNs over the median of `probe_ns` (the mean of the
/// middle two for an even count); 1 when there are none.
double ScaleFor(std::vector<int64_t> probe_ns);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
