// brep_hot and brep_cold: design-object checkout over the paper's Fig. 2.3
// BREP schema. One session runs rounds of point checkouts by key, one full
// derivation through a streaming cursor and one through QueryParallel.
// brep_hot keeps the whole database in the buffer pool of an in-memory
// device; brep_cold runs the same rounds over files several times larger
// than the pool, so buffer misses, evictions and device reads dominate.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "harness.h"
#include "util/random.h"
#include "workloads/brep.h"

namespace primabench {
namespace {

using prima::access::Value;
using prima::mql::Molecule;

constexpr int64_t kBaseNo = 1000;
constexpr const char* kCheckout =
    "SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?";
constexpr const char* kFullSet = "SELECT ALL FROM brep-face-edge-point";
/// Atoms in one BREP molecule: 1 brep, 4 faces, 6 edges, 4 points.
constexpr uint64_t kAtomsPerBrep = 15;
/// The loop closes and reopens the database this often; the median reopen
/// time is reopen_s. Spreading reopens over the run, instead of timing them
/// back to back, keeps one slow moment of the machine from setting it.
constexpr uint64_t kReopenEveryNs = 1000000000;

struct Shape {
  int solids;
  size_t buffer_bytes;
  bool file_backed;
  /// Sets only how many samples each op kind gets and, on brep_cold, what
  /// the pool holds; no metric weighs checkouts against scans.
  int checkouts_per_round;
};

Shape ShapeOf(const std::string& workload) {
  if (workload == "brep_cold") return {1500, 512u << 10, true, 200};
  return {1500, 64u << 20, false, 200};
}

/// Attribute ids the output checks read (resolved from the catalog).
struct BrepAttrs {
  uint16_t brep_no, length, boundary, border, crosspoint, placement;
};

std::optional<BrepAttrs> ResolveAttrs(prima::core::Prima* db) {
  const auto& cat = db->access().catalog();
  const auto* brep = cat.FindAtomType("brep");
  const auto* edge = cat.FindAtomType("edge");
  const auto* face = cat.FindAtomType("face");
  const auto* point = cat.FindAtomType("point");
  if (!brep || !edge || !face || !point) return std::nullopt;
  return BrepAttrs{brep->FindAttr("brep_no")->id,
                   edge->FindAttr("length")->id,
                   edge->FindAttr("boundary")->id,
                   face->FindAttr("border")->id,
                   face->FindAttr("crosspoint")->id,
                   point->FindAttr("placement")->id};
}

/// Checks one BREP molecule against the geometry it must describe; returns
/// an empty string when it holds. The expected values are recomputed from
/// the molecule's own point atoms, not taken from an earlier run.
std::string CheckMolecule(const Molecule& m, const BrepAttrs& a,
                          int64_t* brep_no) {
  const auto* brep = m.FindGroup("brep");
  const auto* faces = m.FindGroup("face");
  const auto* edges = m.FindGroup("edge");
  const auto* points = m.FindGroup("point");
  if (!brep || !faces || !edges || !points) return "missing component group";
  if (brep->atoms.size() != 1 || faces->atoms.size() != 4 ||
      edges->atoms.size() != 6 || points->atoms.size() != 4) {
    return "component counts " + std::to_string(brep->atoms.size()) + "/" +
           std::to_string(faces->atoms.size()) + "/" +
           std::to_string(edges->atoms.size()) + "/" +
           std::to_string(points->atoms.size()) + ", want 1/4/6/4";
  }
  *brep_no = brep->atoms[0].attrs[a.brep_no].AsInt();

  std::map<uint64_t, std::array<double, 3>> coords;
  for (const auto& p : points->atoms) {
    const auto& rec = p.attrs[a.placement].elems();
    if (rec.size() != 3) return "point placement is not x/y/z";
    coords[p.tid.Pack()] = {rec[0].AsReal(), rec[1].AsReal(), rec[2].AsReal()};
  }
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> ends;
  for (const auto& e : edges->atoms) {
    const auto& b = e.attrs[a.boundary].elems();
    if (b.size() != 2) return "edge without two boundary points";
    const auto p = coords.find(b[0].AsTid().Pack());
    const auto q = coords.find(b[1].AsTid().Pack());
    if (p == coords.end() || q == coords.end()) {
      return "edge boundary point outside the molecule";
    }
    double len2 = 0;
    for (int i = 0; i < 3; ++i) {
      len2 += (p->second[i] - q->second[i]) * (p->second[i] - q->second[i]);
    }
    const double stored = e.attrs[a.length].AsReal();
    if (std::fabs(stored - len2) > 1e-9 * std::max(1.0, len2)) {
      return "edge length " + std::to_string(stored) +
             " is not the squared distance " + std::to_string(len2);
    }
    ends[e.tid.Pack()] = {p->first, q->first};
  }
  for (const auto& f : faces->atoms) {
    const auto& border = f.attrs[a.border].elems();
    const auto& cross = f.attrs[a.crosspoint].elems();
    if (border.size() != 3 || cross.size() != 3) {
      return "face without 3 border edges and 3 crosspoints";
    }
    std::set<uint64_t> endpoints, crosspoints;
    for (const auto& e : border) {
      const auto it = ends.find(e.AsTid().Pack());
      if (it == ends.end()) return "face border edge outside the molecule";
      endpoints.insert(it->second.first);
      endpoints.insert(it->second.second);
    }
    for (const auto& p : cross) crosspoints.insert(p.AsTid().Pack());
    if (endpoints != crosspoints) {
      return "face crosspoints are not the endpoints of its border edges";
    }
  }
  return "";
}

/// The identity of a molecule: its brep_no and every atom's tid.
using Signature = std::map<int64_t, std::vector<uint64_t>>;

void AddSignature(const Molecule& m, int64_t brep_no, Signature* sig) {
  std::vector<uint64_t>& tids = (*sig)[brep_no];
  for (const auto& g : m.groups) {
    for (const auto& atom : g.atoms) tids.push_back(atom.tid.Pack());
  }
  std::sort(tids.begin(), tids.end());
}

/// Checks a full-set derivation: each generated brep_no exactly once,
/// 15 atoms per BREP, every molecule geometrically sound.
void CheckFullSet(const std::vector<Molecule>& set, const BrepAttrs& a,
                  int solids, const char* what, Signature* sig,
                  Outcome* out) {
  uint64_t atoms = 0;
  for (const auto& m : set) {
    int64_t no = -1;
    const std::string bad = CheckMolecule(m, a, &no);
    if (!bad.empty()) {
      out->CheckFailed(std::string(what) + ": " + bad);
      return;
    }
    if (no < kBaseNo || no >= kBaseNo + solids || sig->count(no) != 0) {
      out->CheckFailed(std::string(what) + ": brep_no " + std::to_string(no) +
                       " unexpected or repeated");
      return;
    }
    AddSignature(m, no, sig);
    atoms += m.AtomCount();
  }
  if (sig->size() != static_cast<size_t>(solids) ||
      atoms != kAtomsPerBrep * static_cast<uint64_t>(solids)) {
    out->CheckFailed(std::string(what) + ": " + std::to_string(sig->size()) +
                     " molecules / " + std::to_string(atoms) + " atoms");
  }
}

/// An open design database with the loop's session and statements (members
/// are destroyed statements first, database last).
struct Handle {
  std::unique_ptr<prima::core::Prima> db;
  std::unique_ptr<prima::core::Session> session;
  std::optional<prima::core::PreparedStatement> checkout, full_set;

  prima::util::Status Prepare() {
    session = db->OpenSession();
    auto c = session->Prepare(kCheckout);
    if (!c.ok()) return c.status();
    checkout.emplace(std::move(*c));
    auto f = session->Prepare(kFullSet);
    if (!f.ok()) return f.status();
    full_set.emplace(std::move(*f));
    return prima::util::Status::Ok();
  }
  void Close() {
    full_set.reset();
    checkout.reset();
    session.reset();
    db.reset();  // a clean shutdown flushes everything
  }
};

struct Samples {
  std::vector<double> get_us, get_us_traced, get_us_untraced, scan_us,
      parallel_us, first_molecule_us;
  std::vector<double> reopen_s, reopen_read_us;
  /// Per round: checkouts per second of checkout time, and their p90.
  /// The run reports the median round, so a few rounds that a busy moment
  /// of the host slowed move it little.
  std::vector<double> round_rate, round_p90;
  double get_cpu_ns = 0;
  uint64_t gets = 0;
};

/// Per-layer accumulators over traced rounds.
struct Layers {
  Counts checkout, scan;
  uint64_t checkouts = 0, scans = 0, atoms_returned = 0;
  double checkout_ns = 0, kernel_ns = 0, scan_wall_ns = 0, scan_cpu_ns = 0;
  double parallel_wall_ns = 0, parallel_cpu_ns = 0;
  double open_ns = 0, next_ns = 0;
  uint64_t opens = 0, nexts = 0;
  std::vector<double> first_next_us;
  double get_atom_ns = 0;
  uint64_t get_atoms = 0;
};

}  // namespace

Outcome RunBrep(const Args& args, Tracer* tracer) {
  Outcome out;
  const Shape shape = ShapeOf(args.workload);

  std::shared_ptr<prima::storage::BlockDevice> inner;
  std::string dir;
  if (shape.file_backed) {
    dir = args.db_dir + "/" + args.workload + "-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      out.CheckFailed("cannot create " + dir + ": " + ec.message());
      return out;
    }
    inner = std::make_shared<prima::storage::FileBlockDevice>(dir);
  } else {
    inner = std::make_shared<prima::storage::MemoryBlockDevice>();
  }
  // The loop writes nothing; only the clean closes of the periodic reopen
  // do, and an fsync of unchanged files every second would put the host
  // disk into a workload that measures buffer misses and page-cache reads.
  const auto device =
      std::make_shared<BenchDevice>(inner, /*forward_syncs=*/false);

  prima::core::PrimaOptions options;
  options.device = device;
  options.wal = false;
  options.storage.buffer_bytes = shape.buffer_bytes;
  ApplyKnobs(args, &options);

  EndToEnd e2e;
  LayerFigures fig;
  Samples s;
  Layers lay;
  Handle h;
  auto opened = prima::core::Prima::Open(options);
  if (!opened.ok()) {
    out.CheckFailed("open: " + opened.status().ToString());
    return out;
  }
  h.db = std::move(*opened);

  // --- set-up: the design database, built from the seed ----------------------
  prima::workloads::BrepWorkload brep(h.db.get());
  if (auto st = brep.CreateSchema(); !st.ok()) {
    out.CheckFailed("schema: " + st.ToString());
    return out;
  }
  prima::util::Random rng(args.seed);
  uint64_t insert_ns = 0;
  for (int i = 0; i < shape.solids; ++i) {
    const double scale = 1.0 + 0.25 * static_cast<double>(rng.Uniform(8));
    const uint64_t t0 = NowNs();
    auto solid = brep.BuildTetrahedron(kBaseNo + i, kBaseNo + i, scale);
    insert_ns += NowNs() - t0;
    if (!solid.ok()) {
      out.CheckFailed("build solid: " + solid.status().ToString());
      return out;
    }
  }
  if (auto st = h.db->Flush(); !st.ok()) {
    out.CheckFailed("flush: " + st.ToString());
    return out;
  }
  const std::optional<BrepAttrs> attrs = ResolveAttrs(h.db.get());
  if (!attrs || !h.Prepare().ok()) {
    out.CheckFailed("prepare checkout statements");
    return out;
  }
  e2e.setup_s = UptimeSec();
  fig.insert_atom_us =
      insert_ns / 1e3 / (kAtomsPerBrep * static_cast<double>(shape.solids));

  // --- measured rounds -------------------------------------------------------
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t next_reopen = NowNs() + kReopenEveryNs;
  for (uint64_t round = 0; NowNs() < deadline; ++round) {
    if (NowNs() >= next_reopen) {
      // Close cleanly, time the reopen, and check the reopened database
      // still delivers a sound design object before the loop goes on.
      h.Close();
      device->set_timing(args.trace);
      const uint64_t read_ns0 = device->counters().read_ns;
      out.attempted++;
      const uint64_t t0 = NowNs();
      auto again = prima::core::Prima::Open(options);
      const uint64_t t1 = NowNs();
      if (!again.ok()) {
        out.CheckFailed("reopen: " + again.status().ToString());
        break;
      }
      h.db = std::move(*again);
      s.reopen_s.push_back((t1 - t0) / 1e9);
      s.reopen_read_us.push_back((device->counters().read_ns - read_ns0) / 1e3);
      const int64_t key = kBaseNo + static_cast<int64_t>(round % shape.solids);
      auto set = h.db->Query(std::string(kFullSet) + " WHERE brep_no = " +
                             std::to_string(key));
      int64_t no = -1;
      if (!set.ok() || set->molecules.size() != 1 ||
          !CheckMolecule(set->molecules[0], *attrs, &no).empty() || no != key) {
        out.CheckFailed("checkout after reopen");
        break;
      }
      if (!h.Prepare().ok()) {
        out.CheckFailed("prepare after reopen");
        break;
      }
      // Warm the pool again (untimed), as the loop found it before.
      if (auto warm = h.full_set->Query(); !warm.ok() || !warm->Drain().ok()) {
        out.CheckFailed("warm-up scan after reopen");
        break;
      }
      next_reopen = NowNs() + kReopenEveryNs;
    }
    const bool traced = args.trace && round % 2 == 0;
    tracer->set_active(traced);
    device->set_timing(traced);

    // Point checkouts: Bind -> drained cursor, one design object each.
    std::vector<int64_t> keys(shape.checkouts_per_round);
    for (auto& k : keys) {
      k = kBaseNo + static_cast<int64_t>(rng.Uniform(shape.solids));
    }
    std::vector<std::vector<Molecule>> got(keys.size());
    const Counts c0 = TakeCounts(h.db.get(), device.get());
    const uint64_t cpu0 = CpuNs();
    double batch_ns = 0;
    std::vector<double> round_us;
    round_us.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      out.attempted++;
      const uint64_t t0 = NowNs();
      ScopedSpan span(tracer, "checkout");
      bool ok = h.checkout->Bind(0, Value::Int(keys[i])).ok();
      const uint64_t t_open = NowNs();
      auto cursor = h.checkout->Query();
      const uint64_t t_opened = NowNs();
      ok = ok && cursor.ok();
      uint64_t next_ns = 0, nexts = 0;
      while (ok) {
        const uint64_t tn = NowNs();
        auto next = cursor->Next();
        const uint64_t tn1 = NowNs();
        next_ns += tn1 - tn;
        nexts++;
        tracer->Add("mql.next", span.id(), tn, tn1);
        if (!next.ok()) ok = false;
        else if (!next->has_value()) break;
        else got[i].push_back(std::move(**next));
      }
      const uint64_t t1 = NowNs();
      tracer->Add("mql.open", span.id(), t_open, t_opened);
      if (!ok) {
        out.OpFailed("checkout " + std::to_string(keys[i]));
        continue;
      }
      const double us = (t1 - t0) / 1e3;
      s.get_us.push_back(us);
      round_us.push_back(us);
      (traced ? s.get_us_traced : s.get_us_untraced).push_back(us);
      batch_ns += t1 - t0;
      if (traced) {
        lay.open_ns += t_opened - t_open;
        lay.opens++;
        lay.next_ns += next_ns;
        lay.nexts += nexts;
        lay.kernel_ns += (t_opened - t_open) + next_ns;
      }
    }
    s.get_cpu_ns += CpuNs() - cpu0;
    const Counts c1 = TakeCounts(h.db.get(), device.get());
    s.gets += keys.size();
    if (!round_us.empty()) {
      s.round_rate.push_back(round_us.size() / (batch_ns / 1e9));
      s.round_p90.push_back(Percentile(round_us, 90));
    }

    // Output checks on what the checkouts returned.
    uint64_t atoms_returned = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (got[i].size() != 1) {
        out.CheckFailed("checkout of " + std::to_string(keys[i]) + " gave " +
                        std::to_string(got[i].size()) + " molecules");
        continue;
      }
      int64_t no = -1;
      const std::string bad = CheckMolecule(got[i][0], *attrs, &no);
      if (!bad.empty()) out.CheckFailed("checkout: " + bad);
      else if (no != keys[i])
        out.CheckFailed("checkout returned brep_no " + std::to_string(no) +
                        " for key " + std::to_string(keys[i]));
      atoms_returned += got[i][0].AtomCount();
    }
    // Cross-check: the access system read at least the atoms received.
    const Counts dc = c1 - c0;
    if (dc.atoms_read < atoms_returned) {
      out.CheckFailed("access atoms_read " + std::to_string(dc.atoms_read) +
                      " < atoms received " + std::to_string(atoms_returned));
    }
    if (traced) {
      lay.checkout += dc;
      lay.checkouts += keys.size();
      lay.checkout_ns += batch_ns;
      lay.atoms_returned += atoms_returned;
      // Atom reads replayed through the access system's public call.
      for (const auto& mols : got) {
        for (const auto& m : mols) {
          for (const auto& g : m.groups) {
            for (const auto& atom : g.atoms) {
              const uint64_t t0 = NowNs();
              auto a = h.db->access().GetAtom(atom.tid);
              const uint64_t t1 = NowNs();
              tracer->Add("access.get_atom", 0, t0, t1);
              if (!a.ok()) {
                out.CheckFailed("GetAtom replay: " + a.status().ToString());
              }
              lay.get_atom_ns += t1 - t0;
              lay.get_atoms++;
            }
          }
        }
      }
    }

    // Full-set derivation through the streaming cursor.
    std::vector<Molecule> streamed;
    streamed.reserve(shape.solids);
    out.attempted++;
    {
      const Counts k0 = TakeCounts(h.db.get(), device.get());
      const uint64_t cpu_s0 = CpuNs();
      const uint64_t t0 = NowNs();
      ScopedSpan span(tracer, "scan");
      auto cursor = h.full_set->Query();
      bool ok = cursor.ok();
      uint64_t t_first = 0;
      while (ok) {
        auto next = cursor->Next();
        if (t_first == 0) t_first = NowNs();
        if (!next.ok()) ok = false;
        else if (!next->has_value()) break;
        else streamed.push_back(std::move(**next));
      }
      const uint64_t t1 = NowNs();
      const uint64_t cpu_s1 = CpuNs();
      const Counts k1 = TakeCounts(h.db.get(), device.get());
      if (!ok) {
        out.OpFailed("full-set cursor");
      } else {
        s.scan_us.push_back((t1 - t0) / 1e3);
        s.first_molecule_us.push_back((t_first - t0) / 1e3);
        tracer->Add("mql.first_next", span.id(), t0, t_first);
        if (traced) {
          lay.scan += k1 - k0;
          lay.scans++;
          lay.scan_wall_ns += t1 - t0;
          lay.scan_cpu_ns += cpu_s1 - cpu_s0;
          lay.first_next_us.push_back((t_first - t0) / 1e3);
        }
      }
    }

    // The same derivation by semantic parallelism.
    out.attempted++;
    prima::util::Result<prima::mql::MoleculeSet> parallel =
        prima::util::Status::Ok();
    {
      const uint64_t cpu_p0 = CpuNs();
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "core.query_parallel");
        parallel = h.db->QueryParallel(kFullSet);
      }
      const uint64_t t1 = NowNs();
      const uint64_t cpu_p1 = CpuNs();
      if (!parallel.ok()) {
        out.OpFailed("QueryParallel: " + parallel.status().ToString());
      } else {
        s.parallel_us.push_back((t1 - t0) / 1e3);
        if (traced) {
          lay.parallel_wall_ns += t1 - t0;
          lay.parallel_cpu_ns += cpu_p1 - cpu_p0;
        }
      }
    }
    tracer->set_active(false);
    device->set_timing(false);

    Signature by_cursor, by_parallel;
    CheckFullSet(streamed, *attrs, shape.solids, "cursor", &by_cursor, &out);
    if (parallel.ok()) {
      CheckFullSet(parallel->molecules, *attrs, shape.solids, "QueryParallel",
                   &by_parallel, &out);
      if (by_cursor != by_parallel) {
        out.CheckFailed("QueryParallel and the cursor derived different sets");
      }
    }
    if (!out.correct) break;
  }
  h.Close();
  e2e.db_mib = device->ExtentBytes() / 1048576.0;
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  e2e.ops_per_s = Median(s.round_rate);
  e2e.get_p50_us = Percentile(s.get_us, 50);
  e2e.get_p90_us = Median(s.round_p90);
  out.trace_extra["get_p90_us_pooled"] = Percentile(s.get_us, 90);
  out.trace_extra["get_p99_us"] = Percentile(s.get_us, 99);
  e2e.get_cpu_us = s.get_cpu_ns / 1e3 / static_cast<double>(s.gets);
  e2e.scan_p50_us = Median(s.scan_us);
  e2e.parallel_scan_p50_us = Median(s.parallel_us);
  e2e.reopen_s = Median(s.reopen_s);
  e2e.peak_rss_mib = PeakRssMib();
  out.trace_extra["scan_molecules_per_s"] =
      shape.solids / (Median(s.scan_us) / 1e6);
  out.trace_extra["parallel_scan_molecules_per_s"] =
      shape.solids / (Median(s.parallel_us) / 1e6);
  out.trace_extra["first_molecule_us"] = Median(s.first_molecule_us);
  out.trace_extra["get_samples"] = static_cast<double>(s.get_us.size());
  out.trace_extra["scan_samples"] = static_cast<double>(s.scan_us.size());
  out.trace_extra["solids"] = shape.solids;
  out.trace_extra["buffer_mib"] = shape.buffer_bytes / 1048576.0;

  if (!args.trace) {
    EmitEndToEnd(e2e, &out);
    return out;
  }
  fig.FromCounts(lay.checkout, static_cast<double>(lay.checkouts),
                 lay.checkout_ns);
  fig.device_reads_per_scan = Per(lay.scan.dev_blocks_read, lay.scans);
  fig.readahead_pages_per_scan = Per(lay.scan.prefetched, lay.scans);
  fig.get_atom_us = Per(lay.get_atom_ns / 1e3, lay.get_atoms);
  fig.atoms_read_per_atom_returned =
      Per(lay.checkout.atoms_read, lay.atoms_returned);
  fig.open_us = Per(lay.open_ns / 1e3, lay.opens);
  fig.next_us = Per(lay.next_ns / 1e3, lay.nexts);
  fig.first_next_us = Median(lay.first_next_us);
  fig.assembly_cpu_per_wall = Per(lay.scan_cpu_ns, lay.scan_wall_ns);
  fig.parallel_cpu_per_wall = Per(lay.parallel_cpu_ns, lay.parallel_wall_ns);
  fig.restart_device_read_us = Median(s.reopen_read_us);
  fig.client_us_per_stmt = Per(lay.checkout_ns / 1e3, lay.checkouts);
  fig.server_us_per_stmt = Per(lay.kernel_ns / 1e3, lay.checkouts);
  fig.trace_overhead_pct =
      100.0 * (Median(s.get_us_traced) / Median(s.get_us_untraced) - 1.0);
  EmitPerLayer(fig, &out);
  // The traced run's own end-to-end figures go to the trace file.
  Outcome e2e_copy;
  EmitEndToEnd(e2e, &e2e_copy);
  for (const auto& [name, v] : e2e_copy.metrics) {
    out.trace_extra["traced." + name] = v.first;
  }
  return out;
}

}  // namespace primabench
