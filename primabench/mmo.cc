// mmo_local and mmo_wire: the MMO game backend driven by one session, in
// process or through net::Client over loopback. Each round is one shard's
// life: populate, run a seeded op stream with the write-ahead log on, audit
// it, cut the power, and time the restart that recovers it. Every round
// starts from a freshly populated database, so every round measures the
// same amount of work and the restart replays the same amount of log.
//
// One session only: with two or more sessions a player read sometimes
// fails with "NotFound: record N deleted" (see README.md).
#include <algorithm>
#include <set>

#include "harness.h"
#include "net/server.h"
#include "recovery/crash_device.h"
#include "workloads/mmo.h"

namespace primabench {
namespace {

using prima::access::Value;
using prima::workloads::MmoAttrs;
using prima::workloads::MmoConfig;
using prima::workloads::Op;
using prima::workloads::OpKind;

constexpr uint64_t kOpsPerRound = 2000;
constexpr int kPlayers = 1024;
constexpr const char* kRoster =
    "SELECT ALL FROM guild-player-item WHERE guild_no = ?";
constexpr const char* kAllRosters = "SELECT ALL FROM guild-player-item";

uint64_t RoundSeed(uint64_t seed, uint64_t round) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + round + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Samples {
  std::vector<double> get_us, scan_us, transfer_us, op_us_traced,
      op_us_untraced, parallel_us;
  std::vector<double> restart_s, db_mib;
  /// Per round: acknowledged ops per second of driver time, and the p90 of
  /// its logins. The run reports the median round, so a few rounds that a
  /// busy moment of the host slowed move it little.
  std::vector<double> round_rate, round_login_p90;
  double get_cpu_ns = 0;
  uint64_t gets = 0;
};

struct Layers {
  Counts run;
  uint64_t ops = 0, rosters = 0;
  double op_ns = 0;
  double open_ns = 0, next_ns = 0, probe_wall_ns = 0, probe_cpu_ns = 0;
  double parallel_wall_ns = 0, parallel_cpu_ns = 0;
  uint64_t opens = 0, nexts = 0;
  std::vector<double> first_next_us;
  Counts probe;
  uint64_t probe_atoms = 0;
  double get_atom_ns = 0;
  uint64_t get_atoms = 0;
  std::vector<double> scanned, redo_applied, redo_skipped, restart_read_us,
      since_checkpoint;
};

/// Checks guild `g`'s roster molecule against the run's shadow: the guild's
/// players are exactly the players the oracle placed in it, each with its
/// items. Returns an empty string when it holds.
std::string CheckRoster(const prima::mql::Molecule& m, int g,
                        const MmoConfig& cfg,
                        const prima::workloads::MmoShadow& shadow) {
  std::set<int64_t> want;
  for (int p = 0; p < cfg.players; ++p) {
    if (shadow.guild_of(p) == g) want.insert(p);
  }
  const auto* players = m.FindGroup("player");
  const auto* items = m.FindGroup("item");
  std::set<int64_t> got;
  if (players != nullptr) {
    for (const auto& a : players->atoms) {
      got.insert(a.attrs[MmoAttrs::kPlayerNo].AsInt());
    }
  }
  const size_t item_atoms = items == nullptr ? 0 : items->atoms.size();
  if (got != want ||
      item_atoms != want.size() * static_cast<size_t>(cfg.items_per_player)) {
    return "roster of guild " + std::to_string(g) + " has " +
           std::to_string(got.size()) + " players / " +
           std::to_string(item_atoms) + " items, the oracle " +
           std::to_string(want.size()) + " players";
  }
  return "";
}

/// Roster molecules of every guild, one cursor each, checked against the
/// run's shadow. Times the mql calls; returns the atoms received.
uint64_t ProbeRosters(prima::core::Prima* db, const MmoConfig& cfg,
                      const prima::workloads::MmoShadow& shadow,
                      Tracer* tracer, bool traced, Layers* lay,
                      std::vector<prima::access::Tid>* tids, Outcome* out) {
  auto session = db->OpenSession();
  auto stmt = session->Prepare(kRoster);
  if (!stmt.ok()) {
    out->CheckFailed("prepare roster: " + stmt.status().ToString());
    return 0;
  }
  uint64_t atoms = 0;
  for (int g = 0; g < cfg.guilds; ++g) {
    const uint64_t cpu0 = CpuNs();
    const uint64_t t0 = NowNs();
    ScopedSpan span(tracer, "roster_probe");
    bool ok = stmt->Bind(0, Value::Int(g)).ok();
    const uint64_t t_open = NowNs();
    auto cursor = stmt->Query();
    const uint64_t t_opened = NowNs();
    tracer->Add("mql.open", span.id(), t_open, t_opened);
    ok = ok && cursor.ok();
    std::vector<prima::mql::Molecule> mols;
    uint64_t t_first = 0;
    while (ok) {
      const uint64_t tn = NowNs();
      auto next = cursor->Next();
      const uint64_t tn1 = NowNs();
      if (t_first == 0) t_first = tn1;
      tracer->Add("mql.next", span.id(), tn, tn1);
      if (traced) {
        lay->next_ns += tn1 - tn;
        lay->nexts++;
      }
      if (!next.ok()) ok = false;
      else if (!next->has_value()) break;
      else mols.push_back(std::move(**next));
    }
    const uint64_t t1 = NowNs();
    const uint64_t cpu1 = CpuNs();
    if (!ok) {
      out->CheckFailed("roster of guild " + std::to_string(g));
      continue;
    }
    if (traced) {
      lay->open_ns += t_opened - t_open;
      lay->opens++;
      lay->first_next_us.push_back((t_first - t_open) / 1e3);
      lay->probe_wall_ns += t1 - t0;
      lay->probe_cpu_ns += cpu1 - cpu0;
    }
    if (mols.size() != 1) {
      out->CheckFailed("roster of guild " + std::to_string(g) + " gave " +
                       std::to_string(mols.size()) + " molecules");
      continue;
    }
    const std::string bad = CheckRoster(mols[0], g, cfg, shadow);
    if (!bad.empty()) out->CheckFailed(bad);
    atoms += mols[0].AtomCount();
    for (const auto& grp : mols[0].groups) {
      for (const auto& a : grp.atoms) tids->push_back(a.tid);
    }
  }
  return atoms;
}

/// Every guild's roster in one QueryParallel derivation, checked against
/// the shadow like the per-guild cursors. Returns its wall time in us, or
/// a negative number when the derivation failed.
double ParallelRosters(prima::core::Prima* db, const MmoConfig& cfg,
                       const prima::workloads::MmoShadow& shadow,
                       Tracer* tracer, bool traced, Layers* lay,
                       Outcome* out) {
  const uint64_t cpu0 = CpuNs();
  const uint64_t t0 = NowNs();
  prima::util::Result<prima::mql::MoleculeSet> set = prima::util::Status::Ok();
  {
    ScopedSpan span(tracer, "core.query_parallel");
    set = db->QueryParallel(kAllRosters);
  }
  const uint64_t t1 = NowNs();
  const uint64_t cpu1 = CpuNs();
  if (traced) {
    lay->parallel_wall_ns += t1 - t0;
    lay->parallel_cpu_ns += cpu1 - cpu0;
  }
  if (!set.ok()) {
    out->OpFailed("QueryParallel rosters: " + set.status().ToString());
    return -1;
  }
  std::set<int64_t> seen;
  for (const auto& m : set->molecules) {
    const auto* guild = m.FindGroup("guild");
    if (guild == nullptr || guild->atoms.size() != 1) {
      out->CheckFailed("parallel roster without one guild atom");
      return (t1 - t0) / 1e3;
    }
    const int64_t g = guild->atoms[0].attrs[MmoAttrs::kGuildNo].AsInt();
    if (g < 0 || g >= cfg.guilds || !seen.insert(g).second) {
      out->CheckFailed("parallel roster of guild " + std::to_string(g) +
                       " unexpected or repeated");
      return (t1 - t0) / 1e3;
    }
    const std::string bad = CheckRoster(m, static_cast<int>(g), cfg, shadow);
    if (!bad.empty()) out->CheckFailed("parallel " + bad);
  }
  if (seen.size() != static_cast<size_t>(cfg.guilds)) {
    out->CheckFailed("parallel rosters gave " + std::to_string(seen.size()) +
                     " guilds");
  }
  return (t1 - t0) / 1e3;
}

}  // namespace

Outcome RunMmo(const Args& args, Tracer* tracer) {
  Outcome out;
  const bool wire = args.workload == "mmo_wire";
  EndToEnd e2e;
  LayerFigures fig;
  Samples s;
  Layers lay;

  // --- set-up: the game world, populated once and saved ----------------------
  MmoConfig world;
  world.sessions = 1;
  world.players = kPlayers;
  world.ops_per_session = kOpsPerRound;
  prima::core::PrimaOptions options;
  options.storage.buffer_bytes = 32u << 20;
  ApplyKnobs(args, &options);
  auto saved = std::make_shared<prima::storage::MemoryBlockDevice>();
  // Sees every file of the world created and written; each round's wrapper
  // starts from its file sizes.
  const auto saved_device =
      std::make_shared<BenchDevice>(saved, /*forward_syncs=*/true);
  {
    options.device = saved_device;
    auto opened = prima::core::Prima::Open(options);
    if (!opened.ok()) {
      out.CheckFailed("open: " + opened.status().ToString());
      return out;
    }
    prima::workloads::MmoWorkload workload(opened->get());
    prima::util::Status st = workload.CreateSchema();
    const uint64_t t0 = NowNs();
    if (st.ok()) st = workload.Populate(world);
    fig.insert_atom_us =
        (NowNs() - t0) / 1e3 /
        (world.sessions + world.guilds +
         world.players * (1.0 + world.items_per_player +
                          world.quests_per_player));
    if (!st.ok()) {
      out.CheckFailed("populate: " + st.ToString());
      return out;
    }
  }  // a clean shutdown checkpoints the world
  e2e.setup_s = UptimeSec();
  if (wire) {
    options.listen_port = 0;
    options.net_max_connections = 4;
  }

  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  for (uint64_t round = 0; round == 0 || NowNs() < deadline; ++round) {
    const bool traced = args.trace && round % 2 == 0;
    MmoConfig cfg = world;
    cfg.seed = RoundSeed(args.seed, round);

    // Each round restarts the saved world on its own copy of the bytes.
    std::shared_ptr<prima::storage::MemoryBlockDevice> memory = saved->Clone();
    auto power = std::make_shared<prima::recovery::CrashingBlockDevice>(memory);
    auto device = std::make_shared<BenchDevice>(power, /*forward_syncs=*/true);
    device->CopyExtentsFrom(*saved_device);
    device->set_timing(traced);
    options.device = device;
    auto opened = prima::core::Prima::Open(options);
    if (!opened.ok()) {
      out.CheckFailed("open: " + opened.status().ToString());
      break;
    }
    std::unique_ptr<prima::core::Prima> db = std::move(*opened);
    tracer->set_active(traced);

    // --- the op stream -------------------------------------------------------
    const Counts c0 = TakeCounts(db.get(), device.get());
    prima::workloads::MmoDriver driver =
        wire ? prima::workloads::MmoDriver("127.0.0.1",
                                           db->net_server()->port(), cfg)
             : prima::workloads::MmoDriver(db.get(), cfg);
    uint64_t acked = 0, last_ns = 0, last_cpu = 0, last_write_seq = 0;
    double round_op_ns = 0;
    std::vector<double> round_login_us;
    driver.set_ack_hook([&](const Op& op) {
      const uint64_t now = NowNs();
      const uint64_t cpu = CpuNs();
      // The first op also carries the session's connect and prepare.
      if (acked > 0) {
        const double us = (now - last_ns) / 1e3;
        round_op_ns += now - last_ns;
        (traced ? s.op_us_traced : s.op_us_untraced).push_back(us);
        tracer->Add(prima::workloads::OpKindName(op.kind), 0, last_ns, now);
        if (op.kind == OpKind::kLogin) {
          s.get_us.push_back(us);
          round_login_us.push_back(us);
          s.get_cpu_ns += cpu - last_cpu;
          s.gets++;
        } else if (op.kind == OpKind::kGoldTransfer) {
          s.transfer_us.push_back(us);
        } else if (op.kind == OpKind::kRosterScan) {
          s.scan_us.push_back(us);
          if (traced) lay.rosters++;
        }
      }
      last_ns = now;
      last_cpu = cpu;
      acked++;
      if (op.IsWrite()) last_write_seq = op.seq;
    });
    auto run = driver.Run();
    const Counts c1 = TakeCounts(db.get(), device.get());
    out.attempted += acked + (run.ok() ? 0 : 1);
    if (!run.ok()) {
      out.OpFailed(run.status().ToString());
      tracer->set_active(false);
      continue;
    }
    s.round_rate.push_back((acked - 1) / (round_op_ns / 1e9));
    s.round_login_p90.push_back(Percentile(round_login_us, 90));
    if (run->ops_acked != kOpsPerRound) {
      out.CheckFailed("round acknowledged " + std::to_string(run->ops_acked) +
                      " of " + std::to_string(kOpsPerRound) + " ops");
    }
    prima::workloads::MmoOracle oracle(cfg);
    oracle.AdoptShadow(driver.shadow());
    if (auto audit = oracle.Audit(db.get()); !audit.ok()) {
      out.CheckFailed("audit after the run: " + audit.ToString());
    }

    // --- molecule reads against the oracle -----------------------------------
    std::vector<prima::access::Tid> tids;
    const Counts q0 = TakeCounts(db.get(), device.get());
    const uint64_t atoms = ProbeRosters(db.get(), cfg, driver.shadow(), tracer,
                                        traced, &lay, &tids, &out);
    const Counts q1 = TakeCounts(db.get(), device.get());
    out.attempted++;
    const double parallel_us = ParallelRosters(db.get(), cfg, driver.shadow(),
                                               tracer, traced, &lay, &out);
    if (parallel_us >= 0) s.parallel_us.push_back(parallel_us);
    if ((q1 - q0).atoms_read < atoms) {
      out.CheckFailed("access atoms_read " +
                      std::to_string((q1 - q0).atoms_read) +
                      " < roster atoms received " + std::to_string(atoms));
    }
    if (traced) {
      Counts run_delta = c1 - c0;
      // A wire driver retries on the client side, where the kernel cannot
      // count it.
      if (wire) run_delta.txn_retries += run->retries;
      lay.run += run_delta;
      lay.ops += acked - 1;
      lay.op_ns += round_op_ns;
      lay.probe += q1 - q0;
      lay.probe_atoms += atoms;
      for (const auto& tid : tids) {
        const uint64_t t0 = NowNs();
        auto a = db->access().GetAtom(tid);
        const uint64_t t1 = NowNs();
        tracer->Add("access.get_atom", 0, t0, t1);
        if (!a.ok()) out.CheckFailed("GetAtom replay: " + a.status().ToString());
        lay.get_atom_ns += t1 - t0;
        lay.get_atoms++;
      }
    }
    tracer->set_active(false);

    // --- power cut and restart -----------------------------------------------
    const uint64_t since_checkpoint =
        (TakeCounts(db.get(), device.get()) - c0).wal_records;
    s.db_mib.push_back(device->ExtentBytes() / 1048576.0);
    power->CrashNow();
    db.reset();  // its shutdown writes are dropped: the power is off

    auto reboot = std::make_shared<BenchDevice>(memory, /*forward_syncs=*/true);
    reboot->set_timing(traced);
    prima::core::PrimaOptions again = options;
    again.device = reboot;
    again.listen_port = -1;
    out.attempted++;
    const uint64_t r0 = NowNs();
    auto restarted = prima::core::Prima::Open(again);
    const uint64_t r1 = NowNs();
    if (!restarted.ok()) {
      out.OpFailed("restart: " + restarted.status().ToString());
      continue;
    }
    s.restart_s.push_back((r1 - r0) / 1e9);
    prima::core::Prima* rdb = restarted->get();
    auto markers = prima::workloads::ReadMarkers(rdb, cfg.sessions);
    if (!markers.ok() || markers->empty() ||
        (*markers)[0] != static_cast<int64_t>(last_write_seq)) {
      out.CheckFailed("recovered last_op marker is not the last acknowledged "
                      "write " + std::to_string(last_write_seq));
    } else {
      prima::workloads::MmoOracle rebuilt(cfg);
      rebuilt.RebuildFromMarkers(*markers);
      if (auto audit = rebuilt.Audit(rdb); !audit.ok()) {
        out.CheckFailed("audit after restart: " + audit.ToString());
      }
    }
    const auto& rec = rdb->recovery()->stats();
    if (rec.records_scanned < since_checkpoint) {
      out.CheckFailed("restart scanned " + std::to_string(rec.records_scanned) +
                      " log records, fewer than the " +
                      std::to_string(since_checkpoint) +
                      " appended after the checkpoint");
    }
    if (traced) {
      lay.scanned.push_back(static_cast<double>(rec.records_scanned));
      lay.redo_applied.push_back(static_cast<double>(rec.redo_applied));
      lay.redo_skipped.push_back(static_cast<double>(rec.redo_skipped));
      lay.restart_read_us.push_back(reboot->counters().read_ns / 1e3);
      lay.since_checkpoint.push_back(static_cast<double>(since_checkpoint));
    }
    if (!out.correct) break;
    // Later rounds only re-create the same shard; the footprint a user
    // sees is one shard's life.
    if (round == 0) e2e.peak_rss_mib = PeakRssMib();
  }

  e2e.ops_per_s = Median(s.round_rate);
  e2e.get_p50_us = Percentile(s.get_us, 50);
  e2e.get_p90_us = Median(s.round_login_p90);
  out.trace_extra["get_p90_us_pooled"] = Percentile(s.get_us, 90);
  out.trace_extra["get_p99_us"] = Percentile(s.get_us, 99);
  e2e.get_cpu_us = Per(s.get_cpu_ns / 1e3, s.gets);
  e2e.scan_p50_us = Median(s.scan_us);
  e2e.parallel_scan_p50_us = Median(s.parallel_us);
  e2e.reopen_s = Median(s.restart_s);
  e2e.db_mib = Median(s.db_mib);
  out.trace_extra["transfer_p50_us"] = Percentile(s.transfer_us, 50);
  out.trace_extra["transfer_p99_us"] = Percentile(s.transfer_us, 99);
  out.trace_extra["get_samples"] = static_cast<double>(s.get_us.size());
  out.trace_extra["scan_samples"] = static_cast<double>(s.scan_us.size());
  out.trace_extra["rounds"] = static_cast<double>(s.restart_s.size());
  out.trace_extra["ops_per_round"] = static_cast<double>(kOpsPerRound);

  if (!args.trace) {
    EmitEndToEnd(e2e, &out);
    return out;
  }
  fig.FromCounts(lay.run, static_cast<double>(lay.ops), lay.op_ns);
  fig.device_reads_per_scan = Per(lay.run.dev_blocks_read, lay.rosters);
  fig.readahead_pages_per_scan = Per(lay.run.prefetched, lay.rosters);
  fig.get_atom_us = Per(lay.get_atom_ns / 1e3, lay.get_atoms);
  fig.atoms_read_per_atom_returned =
      Per(lay.probe.atoms_read, lay.probe_atoms);
  fig.open_us = Per(lay.open_ns / 1e3, lay.opens);
  fig.next_us = Per(lay.next_ns / 1e3, lay.nexts);
  fig.first_next_us = Median(lay.first_next_us);
  fig.assembly_cpu_per_wall = Per(lay.probe_cpu_ns, lay.probe_wall_ns);
  fig.parallel_cpu_per_wall = Per(lay.parallel_cpu_ns, lay.parallel_wall_ns);
  fig.records_scanned = Median(lay.scanned);
  fig.redo_applied = Median(lay.redo_applied);
  fig.redo_skipped = Median(lay.redo_skipped);
  fig.restart_device_read_us = Median(lay.restart_read_us);
  fig.wal_records_since_checkpoint = Median(lay.since_checkpoint);
  // A statement is one request the kernel timed: a round trip on the wire,
  // a statement of the session's telemetry in process.
  const double stmts = wire ? lay.run.net_requests : lay.run.statements;
  const double server_us =
      wire ? lay.run.net_request_sum_us : lay.run.statement_sum_us;
  fig.client_us_per_stmt = Per(lay.op_ns / 1e3, stmts);
  fig.server_us_per_stmt = Per(server_us, stmts);
  fig.trace_overhead_pct =
      100.0 * (Median(s.op_us_traced) / Median(s.op_us_untraced) - 1.0);
  EmitPerLayer(fig, &out);
  Outcome e2e_copy;
  EmitEndToEnd(e2e, &e2e_copy);
  for (const auto& [name, v] : e2e_copy.metrics) {
    out.trace_extra["traced." + name] = v.first;
  }
  return out;
}

}  // namespace primabench
