// Shared pieces of the PRIMA benchmark: clocks, the result line, the
// timing block-device wrapper, and the in-memory span recorder of a traced
// run. Everything here measures the kernel from the outside, through its
// public headers only.
#ifndef PRIMABENCH_HARNESS_H_
#define PRIMABENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/prima.h"
#include "storage/block_device.h"

namespace primabench {

// --- clocks -----------------------------------------------------------------

uint64_t NowNs();
/// CPU time of the whole process (every thread), in nanoseconds.
uint64_t CpuNs();
/// Seconds since this process started (taken at static initialisation).
double UptimeSec();
double PeakRssMib();

// --- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}
/// a / b, or 0 when b is 0 (a per-op ratio over a phase with no ops).
inline double Per(double a, double b) { return b == 0 ? 0.0 : a / b; }

// --- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  /// Kernel knobs for reference figures (-1 = the kernel's default).
  int cursor_assembly_threads = -1;
  int buffer_shards = -1;
  /// Scratch directory for file-backed databases (inside the checkout).
  std::string db_dir = ".bench_build/db";
};

void ApplyKnobs(const Args& args, prima::core::PrimaOptions* options);

// --- the run's outcome -------------------------------------------------------

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failures, for stderr
  /// Metric name -> (value, unit), in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Extra figures that go only to the trace file.
  std::map<std::string, double> trace_extra;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Record a failed output check (the run stays alive to report it).
  void CheckFailed(const std::string& what);
  /// Record a failed operation.
  void OpFailed(const std::string& what);
  std::string ResultLine() const;
};

// --- the timing device -------------------------------------------------------

/// BlockDevice wrapper the benchmark hands to the kernel via
/// PrimaOptions::device. It always tracks how many bytes each file spans
/// (the database size) and counts transfers; with timing on it also times
/// every read, and every write to the write-ahead log file.
class BenchDevice final : public prima::storage::BlockDevice {
 public:
  /// With `forward_syncs` false, Sync() returns at once: the flush policy
  /// of a read-only workload whose only writes are clean shutdowns.
  BenchDevice(std::shared_ptr<prima::storage::BlockDevice> inner,
              bool forward_syncs)
      : inner_(std::move(inner)), forward_syncs_(forward_syncs) {}

  void set_timing(bool on) { timing_ = on; }

  struct Counters {
    uint64_t blocks_read = 0;
    uint64_t read_ns = 0;
    uint64_t write_bytes = 0;
    uint64_t wal_ns = 0;  ///< time writing the log file, plus syncs
  };
  Counters counters() const;
  /// Bytes spanned by every file written through this wrapper.
  uint64_t ExtentBytes() const;
  /// Start from the file sizes `other` saw, for a wrapper over a copy of
  /// the bytes `other` wrote (files this wrapper never sees written would
  /// otherwise count as empty).
  void CopyExtentsFrom(const BenchDevice& other);

  prima::util::Status Create(FileId file, uint32_t block_size) override;
  prima::util::Status Remove(FileId file) override;
  bool Exists(FileId file) const override { return inner_->Exists(file); }
  prima::util::Result<uint32_t> BlockSizeOf(FileId file) const override {
    return inner_->BlockSizeOf(file);
  }
  std::vector<FileId> ListFiles() const override { return inner_->ListFiles(); }
  prima::util::Status Read(FileId file, uint64_t block, char* dst) override;
  prima::util::Status Write(FileId file, uint64_t block,
                            const char* src) override;
  prima::util::Status ReadChained(FileId file,
                                  const std::vector<uint64_t>& blocks,
                                  char* dst) override;
  prima::util::Status WriteChained(FileId file,
                                   const std::vector<uint64_t>& blocks,
                                   const char* src) override;
  prima::util::Status Sync() override;

 private:
  uint64_t Start() const { return timing_ ? NowNs() : 0; }
  void NoteRead(uint64_t t0, uint64_t blocks);
  void NoteWrite(FileId file, uint64_t t0, uint64_t last_block,
                 uint64_t count);

  std::shared_ptr<prima::storage::BlockDevice> inner_;
  const bool forward_syncs_;
  std::atomic<bool> timing_{false};
  std::atomic<uint64_t> blocks_read_{0}, read_ns_{0}, write_bytes_{0},
      wal_ns_{0};
  mutable std::mutex mu_;
  struct Extent {
    uint32_t block_size = 0;
    uint64_t blocks = 0;
  };
  std::map<FileId, Extent> extents_;  ///< guarded by mu_
};

// --- spans -------------------------------------------------------------------

/// In-memory spans of a traced run: one per timed call into a layer, with
/// the span that caused it. Totals per span name are kept for every span;
/// individual spans are kept up to a cap and written out at the end.
class Tracer {
 public:
  void set_active(bool on) { active_ = on; }

  /// Open a span; returns its id (0 when tracing is off).
  uint32_t Begin(const char* name, uint32_t parent);
  /// Close span `id` opened at `start_ns`.
  void End(uint32_t id, uint64_t end_ns);
  /// Record a finished span in one call.
  uint32_t Add(const char* name, uint32_t parent, uint64_t start_ns,
               uint64_t end_ns);

  struct Total {
    uint64_t count = 0;
    uint64_t ns = 0;
  };
  const std::map<std::string, Total>& totals() const { return totals_; }
  /// Write spans, totals and the given figures as one JSON document.
  bool WriteFile(const std::string& path, const Args& args,
                 const Outcome& outcome) const;

 private:
  struct Span {
    const char* name;
    uint32_t id;
    uint32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  static constexpr size_t kMaxSpans = 200000;
  bool active_ = false;
  uint32_t next_id_ = 1;
  std::vector<Span> spans_;
  struct Open {
    const char* name;
    uint64_t start_ns;
    size_t index;  ///< into spans_, or SIZE_MAX when over the cap
  };
  std::map<uint32_t, Open> open_;
  std::map<std::string, Total> totals_;
  uint64_t dropped_ = 0;
};

/// RAII span (a no-op when the tracer is inactive).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_->End(id_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// --- counters and figures ----------------------------------------------------

/// Kernel counters the benchmark diffs around a phase: Prima::stats() legs,
/// the network request histogram, and the benchmark's own device wrapper.
struct Counts {
  uint64_t fixes = 0, misses = 0, evictions = 0, prefetched = 0;
  uint64_t atoms_read = 0, atoms_modified = 0, versions_installed = 0;
  uint64_t plans = 0, prepared_executions = 0;
  uint64_t statements = 0, statement_sum_us = 0;
  uint64_t wal_records = 0, wal_bytes = 0, wal_forces = 0, fpi_bytes = 0;
  uint64_t commits = 0, txn_retries = 0, lock_conflicts = 0;
  uint64_t net_requests = 0, net_request_sum_us = 0;
  uint64_t dev_blocks_read = 0, dev_read_ns = 0, dev_write_bytes = 0,
           dev_wal_ns = 0;

  Counts& operator+=(const Counts& o);
  friend Counts operator-(const Counts& a, const Counts& b);
};
Counts TakeCounts(prima::core::Prima* db, const BenchDevice* device);

/// The end-to-end figures every workload reports (see README.md for what
/// each means on each workload).
struct EndToEnd {
  double setup_s = 0, ops_per_s = 0, get_p50_us = 0, get_p90_us = 0,
         get_cpu_us = 0, scan_p50_us = 0, parallel_scan_p50_us = 0,
         reopen_s = 0, db_mib = 0, peak_rss_mib = 0;
};
void EmitEndToEnd(const EndToEnd& e, Outcome* out);

/// The per-layer figures of a traced run. A layer a workload does not use
/// reads 0; every time figure is measured on every workload.
struct LayerFigures {
  // storage
  double fixes_per_op = 0, hit_ratio = 0, misses_per_op = 0,
         evictions_per_op = 0, device_reads_per_op = 0, device_read_share = 0,
         device_reads_per_scan = 0, readahead_pages_per_scan = 0,
         device_write_bytes_per_op = 0;
  // access
  double get_atom_us = 0, atoms_read_per_op = 0,
         atoms_read_per_atom_returned = 0, insert_atom_us = 0,
         atoms_modified_per_op = 0, versions_installed_per_op = 0;
  // mql
  double open_us = 0, next_us = 0, first_next_us = 0,
         plan_cache_hit_ratio = 0, assembly_cpu_per_wall = 0;
  // core
  double parallel_cpu_per_wall = 0, statement_time_share = 0,
         statements_per_op = 0, txn_retries = 0, lock_conflicts = 0;
  // recovery
  double wal_bytes_per_op = 0, wal_records_per_op = 0, forces_per_commit = 0,
         wal_device_share = 0, fpi_bytes_per_op = 0, records_scanned = 0,
         redo_applied = 0, redo_skipped = 0, restart_device_read_us = 0,
         wal_records_since_checkpoint = 0;
  // net
  double client_us_per_stmt = 0, server_us_per_stmt = 0,
         round_trips_per_op = 0;
  // the benchmark itself
  double trace_overhead_pct = 0;

  /// Fill the counter-derived storage/access/core/recovery figures from
  /// the counters of `ops` operations that took `op_ns` of wall time.
  void FromCounts(const Counts& c, double ops, double op_ns);
};
void EmitPerLayer(const LayerFigures& f, Outcome* out);

// --- workloads ---------------------------------------------------------------

Outcome RunBrep(const Args& args, Tracer* tracer);
Outcome RunMmo(const Args& args, Tracer* tracer);

}  // namespace primabench

#endif  // PRIMABENCH_HARNESS_H_
