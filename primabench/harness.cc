#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "storage/wal.h"

namespace primabench {

namespace {
const uint64_t kProcessStartNs = NowNs();

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}
}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double UptimeSec() { return (NowNs() - kProcessStartNs) / 1e9; }

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void ApplyKnobs(const Args& args, prima::core::PrimaOptions* options) {
  if (args.cursor_assembly_threads >= 0) {
    options->cursor_assembly_threads =
        static_cast<size_t>(args.cursor_assembly_threads);
  }
  if (args.buffer_shards >= 0) {
    options->buffer_shards = static_cast<size_t>(args.buffer_shards);
  }
}

// --- Outcome -----------------------------------------------------------------

void Outcome::CheckFailed(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back("check failed: " + what);
}

void Outcome::OpFailed(const std::string& what) {
  failed++;
  if (errors.size() < 8) errors.push_back("operation failed: " + what);
}

std::string Outcome::ResultLine() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].first) + ": {\"value\": " +
           Num(metrics[i].second.first) +
           ", \"unit\": " + Quote(metrics[i].second.second) + "}";
  }
  return out + "}}";
}

// --- Counts and figures ------------------------------------------------------

Counts& Counts::operator+=(const Counts& o) {
  fixes += o.fixes;
  misses += o.misses;
  evictions += o.evictions;
  prefetched += o.prefetched;
  atoms_read += o.atoms_read;
  atoms_modified += o.atoms_modified;
  versions_installed += o.versions_installed;
  plans += o.plans;
  prepared_executions += o.prepared_executions;
  statements += o.statements;
  statement_sum_us += o.statement_sum_us;
  wal_records += o.wal_records;
  wal_bytes += o.wal_bytes;
  wal_forces += o.wal_forces;
  fpi_bytes += o.fpi_bytes;
  commits += o.commits;
  txn_retries += o.txn_retries;
  lock_conflicts += o.lock_conflicts;
  net_requests += o.net_requests;
  net_request_sum_us += o.net_request_sum_us;
  dev_blocks_read += o.dev_blocks_read;
  dev_read_ns += o.dev_read_ns;
  dev_write_bytes += o.dev_write_bytes;
  dev_wal_ns += o.dev_wal_ns;
  return *this;
}

Counts operator-(const Counts& a, const Counts& b) {
  Counts d;
  d.fixes = a.fixes - b.fixes;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  d.prefetched = a.prefetched - b.prefetched;
  d.atoms_read = a.atoms_read - b.atoms_read;
  d.atoms_modified = a.atoms_modified - b.atoms_modified;
  d.versions_installed = a.versions_installed - b.versions_installed;
  d.plans = a.plans - b.plans;
  d.prepared_executions = a.prepared_executions - b.prepared_executions;
  d.statements = a.statements - b.statements;
  d.statement_sum_us = a.statement_sum_us - b.statement_sum_us;
  d.wal_records = a.wal_records - b.wal_records;
  d.wal_bytes = a.wal_bytes - b.wal_bytes;
  d.wal_forces = a.wal_forces - b.wal_forces;
  d.fpi_bytes = a.fpi_bytes - b.fpi_bytes;
  d.commits = a.commits - b.commits;
  d.txn_retries = a.txn_retries - b.txn_retries;
  d.lock_conflicts = a.lock_conflicts - b.lock_conflicts;
  d.net_requests = a.net_requests - b.net_requests;
  d.net_request_sum_us = a.net_request_sum_us - b.net_request_sum_us;
  d.dev_blocks_read = a.dev_blocks_read - b.dev_blocks_read;
  d.dev_read_ns = a.dev_read_ns - b.dev_read_ns;
  d.dev_write_bytes = a.dev_write_bytes - b.dev_write_bytes;
  d.dev_wal_ns = a.dev_wal_ns - b.dev_wal_ns;
  return d;
}

Counts TakeCounts(prima::core::Prima* db, const BenchDevice* device) {
  const prima::core::PrimaStatsSnapshot s = db->stats();
  Counts c;
  c.fixes = s.buffer.hits + s.buffer.misses;
  c.misses = s.buffer.misses;
  c.evictions = s.buffer.evictions;
  c.prefetched = s.buffer.prefetched_pages;
  c.atoms_read = s.access.atoms_read;
  c.atoms_modified = s.access.atoms_modified;
  c.versions_installed = s.versions.versions_installed;
  c.plans = s.data.prepared_plans;
  c.prepared_executions = s.data.prepared_executions;
  c.statements = s.statement_us.count;
  c.statement_sum_us = s.statement_us.sum;
  c.wal_records = s.wal.records_appended;
  c.wal_bytes = s.wal.bytes_appended;
  c.wal_forces = s.wal.forces;
  c.fpi_bytes = s.wal.full_page_image_bytes;
  c.commits = s.txn.committed;
  c.txn_retries = s.txn.txn_retries;
  c.lock_conflicts = s.txn.lock_conflicts;
  const prima::obs::HistogramSnapshot net =
      db->telemetry()->net_request_us()->Snapshot();
  c.net_requests = net.count;
  c.net_request_sum_us = net.sum;
  const BenchDevice::Counters d = device->counters();
  c.dev_blocks_read = d.blocks_read;
  c.dev_read_ns = d.read_ns;
  c.dev_write_bytes = d.write_bytes;
  c.dev_wal_ns = d.wal_ns;
  return c;
}

void EmitEndToEnd(const EndToEnd& e, Outcome* out) {
  out->Metric("setup_s", e.setup_s, "s");
  out->Metric("ops_per_s", e.ops_per_s, "1/s");
  out->Metric("get_p50_us", e.get_p50_us, "us");
  out->Metric("get_p90_us", e.get_p90_us, "us");
  out->Metric("get_cpu_us", e.get_cpu_us, "us");
  out->Metric("scan_p50_us", e.scan_p50_us, "us");
  out->Metric("parallel_scan_p50_us", e.parallel_scan_p50_us, "us");
  out->Metric("reopen_s", e.reopen_s, "s");
  out->Metric("db_mib", e.db_mib, "MiB");
  out->Metric("peak_rss_mib", e.peak_rss_mib, "MiB");
}

void LayerFigures::FromCounts(const Counts& c, double ops, double op_ns) {
  fixes_per_op = Per(c.fixes, ops);
  hit_ratio = Per(c.fixes - c.misses, c.fixes);
  misses_per_op = Per(c.misses, ops);
  evictions_per_op = Per(c.evictions, ops);
  device_reads_per_op = Per(c.dev_blocks_read, ops);
  device_read_share = Per(c.dev_read_ns, op_ns);
  device_write_bytes_per_op = Per(c.dev_write_bytes, ops);
  atoms_read_per_op = Per(c.atoms_read, ops);
  atoms_modified_per_op = Per(c.atoms_modified, ops);
  versions_installed_per_op = Per(c.versions_installed, ops);
  plan_cache_hit_ratio =
      c.prepared_executions == 0
          ? 0.0
          : 1.0 - Per(c.plans, c.prepared_executions);
  statement_time_share = Per(c.statement_sum_us * 1000.0, op_ns);
  statements_per_op = Per(c.statements, ops);
  txn_retries = static_cast<double>(c.txn_retries);
  lock_conflicts = static_cast<double>(c.lock_conflicts);
  wal_bytes_per_op = Per(c.wal_bytes, ops);
  wal_records_per_op = Per(c.wal_records, ops);
  forces_per_commit = Per(c.wal_forces, c.commits);
  wal_device_share = Per(c.dev_wal_ns, op_ns);
  fpi_bytes_per_op = Per(c.fpi_bytes, ops);
  round_trips_per_op = Per(c.net_requests, ops);
}

void EmitPerLayer(const LayerFigures& f, Outcome* out) {
  out->Metric("storage.fixes_per_op", f.fixes_per_op, "count");
  out->Metric("storage.hit_ratio", f.hit_ratio, "ratio");
  out->Metric("storage.misses_per_op", f.misses_per_op, "count");
  out->Metric("storage.evictions_per_op", f.evictions_per_op, "count");
  out->Metric("storage.device_reads_per_op", f.device_reads_per_op, "count");
  out->Metric("storage.device_read_share", f.device_read_share, "ratio");
  out->Metric("storage.device_reads_per_scan", f.device_reads_per_scan,
              "count");
  out->Metric("storage.readahead_pages_per_scan", f.readahead_pages_per_scan,
              "count");
  out->Metric("storage.device_write_bytes_per_op", f.device_write_bytes_per_op,
              "bytes");
  out->Metric("access.get_atom_us", f.get_atom_us, "us");
  out->Metric("access.atoms_read_per_op", f.atoms_read_per_op, "count");
  out->Metric("access.atoms_read_per_atom_returned",
              f.atoms_read_per_atom_returned, "ratio");
  out->Metric("access.insert_atom_us", f.insert_atom_us, "us");
  out->Metric("access.atoms_modified_per_op", f.atoms_modified_per_op,
              "count");
  out->Metric("access.versions_installed_per_op", f.versions_installed_per_op,
              "count");
  out->Metric("mql.open_us", f.open_us, "us");
  out->Metric("mql.next_us", f.next_us, "us");
  out->Metric("mql.first_next_us", f.first_next_us, "us");
  out->Metric("mql.plan_cache_hit_ratio", f.plan_cache_hit_ratio, "ratio");
  out->Metric("mql.assembly_cpu_per_wall", f.assembly_cpu_per_wall, "ratio");
  out->Metric("core.parallel_cpu_per_wall", f.parallel_cpu_per_wall, "ratio");
  out->Metric("core.statement_time_share", f.statement_time_share, "ratio");
  out->Metric("core.statements_per_op", f.statements_per_op, "count");
  out->Metric("core.txn_retries", f.txn_retries, "count");
  out->Metric("core.lock_conflicts", f.lock_conflicts, "count");
  out->Metric("recovery.wal_bytes_per_op", f.wal_bytes_per_op, "bytes");
  out->Metric("recovery.wal_records_per_op", f.wal_records_per_op, "count");
  out->Metric("recovery.forces_per_commit", f.forces_per_commit, "count");
  out->Metric("recovery.wal_device_share", f.wal_device_share, "ratio");
  out->Metric("recovery.fpi_bytes_per_op", f.fpi_bytes_per_op, "bytes");
  out->Metric("recovery.records_scanned", f.records_scanned, "count");
  out->Metric("recovery.redo_applied", f.redo_applied, "count");
  out->Metric("recovery.redo_skipped", f.redo_skipped, "count");
  out->Metric("recovery.restart_device_read_us", f.restart_device_read_us,
              "us");
  out->Metric("recovery.wal_records_since_checkpoint",
              f.wal_records_since_checkpoint, "count");
  out->Metric("net.client_us_per_stmt", f.client_us_per_stmt, "us");
  out->Metric("net.server_us_per_stmt", f.server_us_per_stmt, "us");
  out->Metric("net.wire_us_per_stmt",
              f.client_us_per_stmt - f.server_us_per_stmt, "us");
  out->Metric("net.round_trips_per_op", f.round_trips_per_op, "count");
  out->Metric("bench.trace_overhead_pct", f.trace_overhead_pct, "%");
}

// --- BenchDevice -------------------------------------------------------------

BenchDevice::Counters BenchDevice::counters() const {
  Counters c;
  c.blocks_read = blocks_read_.load();
  c.read_ns = read_ns_.load();
  c.write_bytes = write_bytes_.load();
  c.wal_ns = wal_ns_.load();
  return c;
}

uint64_t BenchDevice::ExtentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [file, e] : extents_) total += e.blocks * e.block_size;
  return total;
}

void BenchDevice::CopyExtentsFrom(const BenchDevice& other) {
  std::scoped_lock lock(mu_, other.mu_);
  extents_ = other.extents_;
}

prima::util::Status BenchDevice::Create(FileId file, uint32_t block_size) {
  prima::util::Status st = inner_->Create(file, block_size);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    extents_[file] = Extent{block_size, 0};
  }
  return st;
}

prima::util::Status BenchDevice::Remove(FileId file) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    extents_.erase(file);
  }
  return inner_->Remove(file);
}

void BenchDevice::NoteRead(uint64_t t0, uint64_t blocks) {
  blocks_read_ += blocks;
  if (t0 != 0) read_ns_ += NowNs() - t0;
}

void BenchDevice::NoteWrite(FileId file, uint64_t t0, uint64_t last_block,
                            uint64_t count) {
  uint32_t block_size = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = extents_.find(file);
    if (it == extents_.end()) {
      // A file created before this wrapper existed (a reopened database).
      auto size = inner_->BlockSizeOf(file);
      it = extents_.emplace(file, Extent{size.ok() ? *size : 0u, 0}).first;
    }
    it->second.blocks = std::max(it->second.blocks, last_block + 1);
    block_size = it->second.block_size;
  }
  write_bytes_ += count * block_size;
  if (t0 != 0 && file == prima::storage::kWalSegmentId) {
    wal_ns_ += NowNs() - t0;
  }
}

prima::util::Status BenchDevice::Read(FileId file, uint64_t block, char* dst) {
  const uint64_t t0 = Start();
  prima::util::Status st = inner_->Read(file, block, dst);
  NoteRead(t0, 1);
  return st;
}

prima::util::Status BenchDevice::Write(FileId file, uint64_t block,
                                       const char* src) {
  const uint64_t t0 = Start();
  prima::util::Status st = inner_->Write(file, block, src);
  NoteWrite(file, t0, block, 1);
  return st;
}

prima::util::Status BenchDevice::ReadChained(
    FileId file, const std::vector<uint64_t>& blocks, char* dst) {
  const uint64_t t0 = Start();
  prima::util::Status st = inner_->ReadChained(file, blocks, dst);
  NoteRead(t0, blocks.size());
  return st;
}

prima::util::Status BenchDevice::WriteChained(
    FileId file, const std::vector<uint64_t>& blocks, const char* src) {
  const uint64_t t0 = Start();
  prima::util::Status st = inner_->WriteChained(file, blocks, src);
  if (!blocks.empty()) {
    NoteWrite(file, t0, *std::max_element(blocks.begin(), blocks.end()),
              blocks.size());
  }
  return st;
}

prima::util::Status BenchDevice::Sync() {
  if (!forward_syncs_) return prima::util::Status::Ok();
  const uint64_t t0 = Start();
  prima::util::Status st = inner_->Sync();
  // Syncs are log forces on the measured paths (data flushes happen only
  // at set-up and close), so their time counts toward the log device.
  if (t0 != 0) wal_ns_ += NowNs() - t0;
  return st;
}

// --- Tracer ------------------------------------------------------------------

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  if (!active_) return 0;
  const uint32_t id = next_id_++;
  const uint64_t start = NowNs();
  size_t index = SIZE_MAX;
  if (spans_.size() < kMaxSpans) {
    index = spans_.size();
    spans_.push_back(Span{name, id, parent, start, 0});
  } else {
    dropped_++;
  }
  open_[id] = Open{name, start, index};
  return id;
}

void Tracer::End(uint32_t id, uint64_t end_ns) {
  auto it = open_.find(id);
  if (it == open_.end()) return;
  const Open& o = it->second;
  Total& t = totals_[o.name];
  t.count++;
  t.ns += end_ns - o.start_ns;
  if (o.index != SIZE_MAX) spans_[o.index].end_ns = end_ns;
  open_.erase(it);
}

uint32_t Tracer::Add(const char* name, uint32_t parent, uint64_t start_ns,
                     uint64_t end_ns) {
  if (!active_) return 0;
  const uint32_t id = next_id_++;
  Total& t = totals_[name];
  t.count++;
  t.ns += end_ns - start_ns;
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  } else {
    dropped_++;
  }
  return id;
}

bool Tracer::WriteFile(const std::string& path, const Args& args,
                       const Outcome& outcome) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": " << Quote(args.workload) << ", \"seed\": "
      << args.seed << ", \"seconds\": " << Num(args.seconds)
      << ",\n \"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ",\n \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    out << (i ? ", " : "") << Quote(outcome.metrics[i].first) << ": "
        << Num(outcome.metrics[i].second.first);
  }
  out << "},\n \"figures\": {";
  size_t i = 0;
  for (const auto& [name, value] : outcome.trace_extra) {
    out << (i++ ? ", " : "") << Quote(name) << ": " << Num(value);
  }
  out << "},\n \"span_totals\": {";
  i = 0;
  for (const auto& [name, t] : totals_) {
    out << (i++ ? ", " : "") << Quote(name) << ": {\"count\": " << t.count
        << ", \"ns\": " << t.ns << "}";
  }
  out << "},\n \"spans_dropped\": " << dropped_ << ",\n \"spans\": [\n";
  for (size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    out << (k ? ",\n" : "") << "  [" << Quote(s.name) << ", " << s.id << ", "
        << s.parent << ", " << s.start_ns << ", " << s.end_ns << "]";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace primabench
