/**
 * @file
 * Repository benchmark program. Simulates one workload's cells for a
 * fixed host-time window and reports host-side metrics; in traced mode
 * it also prices each simulator layer by replaying the same committed
 * instruction stream through that layer alone, timed by spans recorded
 * here, around the calls into each layer.
 *
 * Normally started by perfbench/run.py, which builds it and relays its
 * result line:
 *
 *   simbench --workload grid|hot|branchy --seed N --seconds S
 *            --trace 0|1 --reference parrot_bench_cache.txt [--spans FILE]
 *
 * The last line on stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. Progress and problems go to stderr.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.hh"
#include "cpu/ooo_core.hh"
#include "frontend/branch_predictor.hh"
#include "frontend/decoder.hh"
#include "memory/hierarchy.hh"
#include "optimizer/equivalence.hh"
#include "optimizer/optimizer.hh"
#include "power/account.hh"
#include "power/energy_model.hh"
#include "sim/model_config.hh"
#include "sim/result.hh"
#include "sim/simulator.hh"
#include "tracecache/constructor.hh"
#include "tracecache/filter.hh"
#include "tracecache/predictor.hh"
#include "tracecache/selector.hh"
#include "tracecache/trace_cache.hh"
#include "workload/apps.hh"
#include "workload/executor.hh"

namespace
{

using namespace parrot;
using Clock = std::chrono::steady_clock;
using workload::DynInst;

/** One benchmark workload: the (model x program) cells one pass
 * simulates. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> models;
    std::vector<std::string> apps; //!< empty: the full 44-app suite
    /** Programs generated per app, each from its own seed: more cells
     * per app make the workload's cost depend less on any one seed. */
    unsigned variants;
    std::uint64_t budget; //!< committed instructions per cell
    /** The cell checked against the committed figure cache. */
    std::string refModel;
    std::string refApp;
};

/**
 * The workloads, chosen to load different layers:
 *  - grid: all seven models on all 44 apps at a short budget, the
 *    figure-cache regeneration in miniature. Per-cell fixed costs
 *    (construction, stats registration, result assembly), filter
 *    warm-up and the models without a trace cache weigh most here.
 *  - hot: TON on the six apps with the highest trace-cache coverage in
 *    the committed cache (>= 0.87, loop-dominated FP code), so most uops
 *    come from the trace cache: trace unit, hot pipeline and optimizer.
 *  - branchy: TON on six SpecInt apps with coverage below 0.48, gcc
 *    (the most cold mispredictions) among them, so the trace cache is
 *    mostly bypassed: cold front end, branch prediction, trace aborts.
 * hot and branchy run four programs per app: with six apps alone, the
 * slowest cell, and so the latency percentiles, move with the seed.
 */
std::optional<WorkloadSpec>
findWorkload(const std::string &name)
{
    if (name == "grid")
        return WorkloadSpec{name, sim::ModelConfig::allNames(), {}, 1,
                            20000, "TOS", "word"};
    if (name == "hot")
        return WorkloadSpec{name,
                            {"TON"},
                            {"swim", "facerec", "mesa", "equake",
                             "wupwise", "sixtrack"},
                            4,
                            200000,
                            "TON",
                            "swim"};
    if (name == "branchy")
        return WorkloadSpec{name,
                            {"TON"},
                            {"gcc", "crafty", "bzip", "parser", "twolf",
                             "vortex"},
                            4,
                            200000,
                            "TON",
                            "gcc"};
    return std::nullopt;
}

/** The benchmark seed (and the variant number) picks a different
 * program and dynamic stream for every app while keeping the app's
 * statistical profile. */
workload::SuiteEntry
seeded(workload::SuiteEntry entry, std::uint64_t seed, unsigned variant)
{
    entry.profile.seed =
        hashCombine(hashCombine(entry.profile.seed, seed), variant);
    return entry;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty sample. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

/** Everything a pass needs, built once per set-up. */
struct Prepared
{
    std::vector<sim::ModelConfig> configs;
    std::vector<sim::Workload> loads;
    double pmax = 0.0;
};

/**
 * The set-up a suite run pays before its first cell: generate every
 * app's program, then calibrate Pmax (§3.2: swim on the base model N).
 */
Prepared
prepare(const WorkloadSpec &spec, std::uint64_t seed)
{
    Prepared p;
    for (const auto &model : spec.models)
        p.configs.push_back(sim::ModelConfig::make(model));
    std::vector<workload::SuiteEntry> suite;
    if (spec.apps.empty()) {
        suite = workload::fullSuite();
    } else {
        for (const auto &app : spec.apps)
            suite.push_back(workload::findApp(app));
    }
    const sim::Workload *swim = nullptr;
    p.loads.reserve(suite.size() * spec.variants); // `swim` points in
    for (const auto &entry : suite) {
        for (unsigned v = 0; v < spec.variants; ++v)
            p.loads.push_back(sim::loadWorkload(seeded(entry, seed, v)));
        if (entry.profile.name == "swim")
            swim = &p.loads.back();
    }
    std::optional<sim::Workload> own_swim;
    if (swim == nullptr) {
        own_swim =
            sim::loadWorkload(seeded(workload::findApp("swim"), seed, 0));
        swim = &*own_swim;
    }
    sim::ParrotSimulator calibration(sim::ModelConfig::make("N"), *swim);
    p.pmax = calibration.run(spec.budget, 0.0).energyPerCycle;
    return p;
}

/** Accounting and range invariants every healthy result satisfies. */
std::string
invariantError(const sim::SimResult &r, const sim::ModelConfig &cfg,
               std::uint64_t budget)
{
    if (r.tombstone)
        return "cell failed (tombstone)";
    if (r.insts < budget)
        return "committed fewer instructions than the budget";
    if (r.cycles == 0 || r.uops == 0 || !(r.dynamicEnergy > 0.0))
        return "zero cycles, uops or dynamic energy";
    if (!(r.coverage >= 0.0 && r.coverage <= 1.0))
        return "coverage outside [0,1]";
    if (!cfg.hasTraceCache && (r.uopsFromTraceCache != 0 || r.coverage != 0.0))
        return "trace-cache work on a model without a trace cache";
    if (std::abs(r.totalEnergy - r.dynamicEnergy - r.leakageEnergy) >
        1e-9 * r.totalEnergy)
        return "total energy is not dynamic + leakage";
    if (r.cosimMismatches != 0)
        return "co-simulation mismatches";
    return {};
}

/** Fields of a cell that do not depend on the Pmax calibration. */
std::vector<std::pair<const char *, double>>
pmaxFreeFields(const sim::SimResult &r)
{
    return {
        {"insts", static_cast<double>(r.insts)},
        {"uops", static_cast<double>(r.uops)},
        {"cycles", static_cast<double>(r.cycles)},
        {"uops_from_tc", static_cast<double>(r.uopsFromTraceCache)},
        {"uops_from_cold", static_cast<double>(r.uopsFromColdPipe)},
        {"cold_branches", static_cast<double>(r.coldCondBranches)},
        {"cold_mispredicts", static_cast<double>(r.coldBranchMispredicts)},
        {"trace_predictions", static_cast<double>(r.tracePredictions)},
        {"trace_aborts", static_cast<double>(r.traceMispredicts)},
        {"traces_inserted", static_cast<double>(r.tracesInserted)},
        {"trace_executions", static_cast<double>(r.traceExecutions)},
        {"traces_optimized", static_cast<double>(r.tracesOptimized)},
        {"dynamic_energy", r.dynamicEnergy},
        {"l1d_miss_rate", r.l1dMissRate},
    };
}

/** First differing Pmax-free field of two results, or empty. */
std::string
diffPmaxFree(const sim::SimResult &want, const sim::SimResult &got)
{
    const auto a = pmaxFreeFields(want);
    const auto b = pmaxFreeFields(got);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].second != b[i].second) {
            std::ostringstream os;
            os.precision(17);
            os << a[i].first << " expected " << a[i].second << " got "
               << b[i].second;
            return os.str();
        }
    }
    return {};
}

/**
 * Re-simulate one cell of the committed figure cache (default app
 * seeds, 600K instructions) and compare it with the committed row.
 */
std::string
referenceError(const std::string &cache_path, const std::string &model,
               const std::string &app)
{
    const std::uint64_t insts = 600000;
    const std::string key = sim::resultCacheKey(model, app, insts);
    std::ifstream in(cache_path);
    if (!in)
        return "cannot read " + cache_path;
    std::string line;
    sim::SimResult want;
    bool found = false;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size() + 1, key + "\t") == 0) {
            if (!sim::parseCachePayload(line.substr(key.size() + 1), want))
                return "malformed reference row " + key;
            found = true;
            break;
        }
    }
    if (!found)
        return "no reference row " + key + " in " + cache_path;
    sim::ParrotSimulator s(sim::ModelConfig::make(model),
                           sim::loadWorkload(workload::findApp(app)));
    const std::string diff = diffPmaxFree(want, s.run(insts, 0.0));
    return diff.empty() ? diff : key + ": " + diff;
}

/** Counts and failures gathered across a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (failed <= 8)
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
};

/** Checks every cell result: invariants, and determinism against the
 * same cell's result from the first pass. */
class CellChecker
{
  public:
    explicit CellChecker(std::size_t cells) : first(cells) {}

    void
    check(std::size_t cell, const sim::SimResult &r,
          const sim::ModelConfig &cfg, std::uint64_t budget, Tally &tally)
    {
        const std::string label = cfg.name + "/" + r.app;
        const std::string err = invariantError(r, cfg, budget);
        if (!err.empty()) {
            tally.fail(label + ": " + err);
            return;
        }
        const std::string line = sim::serializeCacheLine(label, r);
        if (first[cell].empty())
            first[cell] = line;
        else if (first[cell] != line)
            tally.fail(label + ": result differs from its first run");
    }

    const std::vector<std::string> &firstLines() const { return first; }

  private:
    std::vector<std::string> first;
};

// --- traced mode: spans and per-layer replays ------------------------

/** One timed interval. Spans of one execution of a cell share `run`;
 * `cell` indexes the (model, app) cell; `parent` is the span that
 * caused this one (-1 for an execution's root span). */
struct Span
{
    std::int64_t parent;
    std::uint64_t run;
    std::size_t cell;
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
};

/** In-memory span store, written out when the run ends. */
class Tracer
{
  public:
    Tracer() : origin(Clock::now()) {}

    std::int64_t
    open(const char *name, std::int64_t parent, std::uint64_t run,
         std::size_t cell)
    {
        spans.push_back(Span{parent, run, cell, name, now(), 0});
        return static_cast<std::int64_t>(spans.size() - 1);
    }

    void close(std::int64_t id) { spans[id].endNs = now(); }

    /** Run fn under a child span of `parent`. */
    template <typename Fn>
    void
    timed(const char *name, std::int64_t parent, Fn &&fn)
    {
        const std::uint64_t run = spans[parent].run;
        const std::size_t cell = spans[parent].cell;
        const std::int64_t id = open(name, parent, run, cell);
        fn();
        close(id);
    }

    /** Fastest self time (duration minus the child spans) per (span
     * name, cell), folded into `best` across calls. */
    void
    foldBestSelfNs(
        std::map<std::pair<std::string, std::size_t>, double> &best) const
    {
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs);
        for (const Span &s : spans) {
            if (s.parent >= 0)
                self[s.parent] -= static_cast<double>(s.endNs - s.startNs);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto key = std::make_pair(std::string(spans[i].name),
                                            spans[i].cell);
            auto [it, fresh] = best.emplace(key, self[i]);
            if (!fresh)
                it->second = std::min(it->second, self[i]);
        }
    }

    /** Append the spans as JSON lines tagged with their worker. */
    void
    write(std::ostream &out, unsigned worker) const
    {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << "{\"worker\": " << worker << ", \"id\": " << i
                << ", \"parent\": " << s.parent << ", \"run\": " << s.run
                << ", \"cell\": " << s.cell << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << "}\n";
        }
    }

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin)
            .count();
    }

    Clock::time_point origin;
    std::vector<Span> spans;
};

struct FrontEndCounts
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
};

/** The cold front end over the stream: decode groups, one I-cache
 * fetch per line per group, direction/BTB/RAS prediction and training,
 * as the cold pipeline does for every instruction it fetches. */
FrontEndCounts
replayFrontEnd(const sim::ModelConfig &cfg, const std::vector<DynInst> &stream)
{
    memory::Hierarchy memory(cfg.memory);
    frontend::BranchPredictor bp(cfg.branchPredictor);
    frontend::Decoder decoder(cfg.decoder);
    const unsigned line_bytes = cfg.memory.l1i.lineBytes;
    std::vector<const isa::MacroInst *> window;
    FrontEndCounts n;
    std::size_t next = 0;
    while (next < stream.size()) {
        window.clear();
        for (std::size_t i = next; i < stream.size(); ++i) {
            window.push_back(stream[i].inst);
            if (window.size() >= cfg.decoder.width * 2)
                break;
            if (stream[i].isCti() && stream[i].taken)
                break;
        }
        const unsigned group =
            decoder.throughput(window.data(), window.size());
        Addr last_line = ~Addr{0};
        for (unsigned g = 0; g < group; ++g) {
            const DynInst &dyn = stream[next++];
            const isa::MacroInst &inst = *dyn.inst;
            if (inst.pc / line_bytes != last_line) {
                memory.fetchInst(inst.pc);
                last_line = inst.pc / line_bytes;
            }
            Addr target = 0;
            switch (inst.cti) {
              case isa::CtiType::CondBranch: {
                ++n.branches;
                const bool predicted = bp.predict(inst.pc);
                bp.update(inst.pc, dyn.taken);
                n.mispredicts += predicted != dyn.taken;
                if (dyn.taken && !bp.btbLookup(inst.pc, target))
                    bp.btbInsert(inst.pc, inst.takenTarget);
                break;
              }
              case isa::CtiType::Call:
                bp.rasPush(inst.nextPc());
                [[fallthrough]];
              case isa::CtiType::Jump:
                if (!bp.btbLookup(inst.pc, target))
                    bp.btbInsert(inst.pc, inst.takenTarget);
                break;
              case isa::CtiType::Return:
                n.mispredicts += bp.rasPop() != dyn.nextPc;
                break;
              case isa::CtiType::JumpInd: {
                const bool hit = bp.btbLookup(inst.pc, target);
                bp.btbInsert(inst.pc, dyn.nextPc);
                n.mispredicts += !hit || target != dyn.nextPc;
                break;
              }
              case isa::CtiType::None:
                break;
            }
        }
    }
    return n;
}

/**
 * The trace unit over the stream: selection, fetch-side trace
 * prediction and trace-cache lookup at every candidate start, predictor
 * training, hot filtering and trace construction, and blazing
 * filtering of the traces that would execute. Traces promoted by the
 * blazing filter are appended to `blazing` for the optimizer replay.
 */
void
replayTraceUnit(const sim::ModelConfig &cfg,
                const std::vector<DynInst> &stream,
                std::vector<tracecache::Trace> &blazing)
{
    tracecache::TraceSelector selector;
    tracecache::CounterFilter hot_filter(cfg.hotFilter);
    tracecache::CounterFilter blaze_filter(cfg.blazeFilter);
    tracecache::TraceCache cache(cfg.traceCache);
    tracecache::TracePredictor predictor(cfg.tracePredictor);
    tracecache::Tid prev;
    tracecache::Tid prev_prev;
    tracecache::TraceCandidate cand;
    for (const DynInst &dyn : stream) {
        selector.feed(dyn);
        while (selector.pop(cand)) {
            tracecache::Tid predicted;
            if (predictor.predict(prev, cand.tid.startPc, predicted)) {
                tracecache::TraceRef trace = cache.lookup(predicted);
                if (trace && !(trace->tid == cand.tid)) {
                    predictor.mispredict(prev, cand.tid.startPc);
                } else if (trace && cfg.hasOptimizer && !trace->optimized &&
                           blaze_filter.promoted(
                               blaze_filter.bump(trace->tid))) {
                    blazing.push_back(*trace);
                    trace->optimized = true; // handed to the optimizer
                    blaze_filter.reset(trace->tid);
                }
            }
            predictor.train(prev_prev, cand.tid.startPc, cand.tid);
            prev_prev = prev;
            prev = cand.tid;
            if (hot_filter.promoted(hot_filter.bump(cand.tid)) &&
                cache.peek(cand.tid) == nullptr) {
                cache.insert(tracecache::constructTrace(cand));
                hot_filter.reset(cand.tid);
            }
            cache.reclaimLimbo();
        }
    }
}

/** The out-of-order core over the stream's uops with an ideal front
 * end: dispatch up to the core width per cycle, then drain. */
std::uint64_t
replayCore(const sim::ModelConfig &cfg, const std::vector<DynInst> &stream)
{
    memory::Hierarchy memory(cfg.memory);
    power::EnergyAccount account;
    cpu::OooCore core(cfg.coldCore, &memory, &account);
    const unsigned width = core.config().width;
    std::size_t next = 0;
    while (next < stream.size()) {
        unsigned budget = width;
        while (next < stream.size() && budget > 0) {
            const DynInst &dyn = stream[next];
            const unsigned n_uops = dyn.numUops();
            if ((n_uops > budget && budget < width) ||
                !core.canDispatch(n_uops))
                break;
            for (unsigned u = 0; u < n_uops; ++u) {
                core.dispatch(dyn.inst->uops[u], dyn.memAddr[u],
                              u + 1 == n_uops, false);
            }
            budget -= std::min(budget, n_uops);
            ++next;
        }
        core.tick();
    }
    while (!core.drained())
        core.tick();
    return core.committedUops();
}

/** Power and stats bookkeeping: the cold front end's energy events over
 * the stream and their pricing, then the end-of-run stats-tree
 * snapshot materialized into a result (returned for checking). */
sim::SimResult
replayPowerStats(const sim::ModelConfig &cfg,
                 const std::vector<DynInst> &stream,
                 const sim::ParrotSimulator &sim, double &energy)
{
    using power::PowerEvent;
    power::EnergyAccount account;
    const unsigned line_bytes = cfg.memory.l1i.lineBytes;
    Addr last_line = ~Addr{0};
    for (const DynInst &dyn : stream) {
        const isa::MacroInst &inst = *dyn.inst;
        if (inst.pc / line_bytes != last_line) {
            account.record(PowerEvent::IcacheRead);
            last_line = inst.pc / line_bytes;
        }
        account.record(PowerEvent::DecodeWeight, inst.decodeWeight());
        if (inst.isCondBranch()) {
            account.record(PowerEvent::BpLookup);
            account.record(PowerEvent::BpUpdate);
        }
        if (dyn.isCti() && dyn.taken)
            account.record(PowerEvent::BtbAccess);
    }
    energy = account.dynamicEnergy(power::EnergyModel(cfg.coldCore.scaling()));
    sim::SimResult r;
    sim::materializeResult(r, sim.statsTree().snapshot());
    return r;
}

/** Simulated counts the traced run accumulates over its cells. */
struct LayerTotals
{
    std::uint64_t simInsts = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t uopsFromTc = 0;
    std::uint64_t uopsFromCold = 0;
    std::uint64_t tracePredictions = 0;
    std::uint64_t traceAborts = 0;
    std::uint64_t coldBranches = 0;
    std::uint64_t coldMispredicts = 0;
    std::uint64_t optUopsBefore = 0;
    std::uint64_t optUopsAfter = 0;
};

/** One traced cell: the full simulation, then each layer's replay, each
 * under its own span. Checks run outside the spans. */
sim::SimResult
tracedCell(Tracer &tracer, std::uint64_t run, std::size_t cell,
           const sim::ModelConfig &cfg, const sim::Workload &load,
           std::uint64_t budget, double pmax, std::uint64_t seed,
           std::vector<DynInst> &stream, LayerTotals &totals, Tally &tally)
{
    const std::int64_t root = tracer.open("cell", -1, run, cell);
    std::optional<sim::ParrotSimulator> s;
    sim::SimResult r;
    tracer.timed("construct", root, [&] { s.emplace(cfg, load); });
    tracer.timed("simulate", root, [&] { r = s->run(budget, pmax); });

    stream.resize(budget);
    tracer.timed("source", root, [&] {
        workload::Executor executor(*load.program, load.profile);
        for (DynInst &dyn : stream)
            executor.next(dyn);
    });
    FrontEndCounts fe;
    tracer.timed("frontend", root,
                 [&] { fe = replayFrontEnd(cfg, stream); });
    std::vector<tracecache::Trace> blazing;
    if (cfg.hasTraceCache) {
        tracer.timed("traceunit", root,
                     [&] { replayTraceUnit(cfg, stream, blazing); });
    }
    std::vector<std::vector<tracecache::TraceUop>> originals;
    for (const auto &trace : blazing)
        originals.push_back(trace.uops);
    std::vector<optimizer::OptimizeResult> optimized;
    if (cfg.hasOptimizer) {
        tracer.timed("optimizer", root, [&] {
            optimizer::TraceOptimizer opt(cfg.optimizer);
            for (auto &trace : blazing)
                optimized.push_back(opt.optimize(trace));
        });
    }
    std::uint64_t core_uops = 0;
    tracer.timed("core", root,
                 [&] { core_uops = replayCore(cfg, stream); });
    double energy = 0.0;
    sim::SimResult from_tree;
    tracer.timed("power_stats", root, [&] {
        from_tree = replayPowerStats(cfg, stream, *s, energy);
    });
    tracer.close(root);

    const std::string label = cfg.name + "/" + load.profile.name;
    if (fe.branches == 0 || core_uops == 0 || !(energy > 0.0))
        tally.fail(label + ": a layer replay did no work");
    if (sim::serializeCacheLine(label, from_tree) !=
        sim::serializeCacheLine(label, r))
        tally.fail(label + ": stats-tree snapshot disagrees with the result");
    for (std::size_t i = 0; i < optimized.size(); ++i) {
        std::string why;
        if (!optimizer::equivalentSweep(originals[i], blazing[i].uops, seed,
                                        optimizer::defaultEquivalenceSeeds,
                                        &why)) {
            tally.fail(label + ": optimized trace not equivalent: " + why);
        }
        totals.optUopsBefore += optimized[i].uopsBefore;
        totals.optUopsAfter += optimized[i].uopsAfter;
    }
    totals.simInsts += r.insts;
    totals.simCycles += r.cycles;
    totals.uopsFromTc += r.uopsFromTraceCache;
    totals.uopsFromCold += r.uopsFromColdPipe;
    totals.tracePredictions += r.tracePredictions;
    totals.traceAborts += r.traceMispredicts;
    totals.coldBranches += r.coldCondBranches;
    totals.coldMispredicts += r.coldBranchMispredicts;
    return r;
}

/** One measuring thread's state; workers share nothing while running. */
struct Worker
{
    explicit Worker(std::size_t cells)
        : checker(cells),
          bestS(cells, std::numeric_limits<double>::infinity()),
          cellInsts(cells, 0)
    {}

    std::vector<double> setupS;
    Tally tally;
    CellChecker checker;
    std::vector<double> bestS; //!< fastest execution of each cell
    std::vector<std::uint64_t> cellInsts;
    sim::SimResult firstResult; //!< cell 0, first pass
    Tracer tracer;
    LayerTotals totals;
    unsigned passes = 0;
    std::string error; //!< why the worker stopped early, if it did
};

/**
 * One worker's share of the measured window: whole passes over every
 * cell of the shared, read-only `prep` until `seconds` after `start`,
 * so every run weighs the cells equally. With `time_setups`, the worker
 * also repeats and times the set-up through the window (discarding what
 * it builds, which equals `prep`), so the set-up median reflects all of
 * the window while at most one extra copy of the programs is alive.
 */
void
measure(const WorkloadSpec &spec, std::uint64_t seed, double seconds,
        bool trace, Clock::time_point start, const Prepared &prep,
        bool time_setups, Worker &w)
{
    auto time_setup = [&] {
        const auto t = Clock::now();
        prepare(spec, seed);
        w.setupS.push_back(secondsSince(t));
    };
    auto last_setup = Clock::now();
    const std::size_t num_apps = prep.loads.size();
    std::vector<DynInst> stream;
    while (w.passes == 0 || secondsSince(start) < seconds) {
        if (time_setups && secondsSince(last_setup) >= seconds / 8) {
            time_setup();
            last_setup = Clock::now();
        }
        for (std::size_t c = 0; c < w.bestS.size(); ++c) {
            const sim::ModelConfig &cfg = prep.configs[c / num_apps];
            const sim::Workload &load = prep.loads[c % num_apps];
            ++w.tally.attempted;
            try {
                sim::SimResult r;
                if (trace) {
                    r = tracedCell(w.tracer, w.tally.attempted, c, cfg, load,
                                   spec.budget, prep.pmax, seed, stream,
                                   w.totals, w.tally);
                } else {
                    const auto t = Clock::now();
                    sim::ParrotSimulator s(cfg, load);
                    r = s.run(spec.budget, prep.pmax);
                    w.bestS[c] = std::min(w.bestS[c], secondsSince(t));
                }
                w.cellInsts[c] = r.insts;
                if (w.passes == 0 && c == 0)
                    w.firstResult = r;
                w.checker.check(c, r, cfg, spec.budget, w.tally);
            } catch (const std::exception &e) {
                w.tally.fail(cfg.name + "/" + load.profile.name + ": " +
                             e.what());
            }
        }
        ++w.passes;
    }
    while (time_setups && w.setupS.size() < 4)
        time_setup();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": "
        << (tally.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << tally.attempted
        << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload "
                 "grid|hot|branchy --seed N --seconds S --trace 0|1 "
                 "--reference CACHE_FILE [--spans FILE]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string reference;
    std::string spans_path;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload_name = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            trace = value == "0" ? 0 : value == "1" ? 1 : -1;
        } else if (arg == "--reference") {
            reference = value;
        } else if (arg == "--spans") {
            spans_path = value;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
        if (end != nullptr && (end == value.c_str() || *end != '\0'))
            return usage(("bad value for " + arg).c_str());
    }
    const std::optional<WorkloadSpec> found = findWorkload(workload_name);
    if (!found)
        return usage("unknown workload");
    if (!(seconds > 0.0) || trace < 0 || reference.empty())
        return usage("--seconds, --trace and --reference are required");
    const WorkloadSpec &spec = *found;

    // The measured window runs on one worker per hardware thread (up to
    // four), each simulating every cell of one shared set-up, as the
    // SuiteRunner pool shares its programs, and every cell keeps its
    // fastest execution. The simulation is deterministic, so a slower
    // execution of a cell measures only interference: on a shared host,
    // each vCPU slows by up to half for seconds to minutes at a time,
    // and rarely all of them at once.
    const unsigned num_workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    const std::size_t num_cells =
        spec.models.size() * spec.variants *
        (spec.apps.empty() ? workload::fullSuite().size() : spec.apps.size());
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu cells of %llu insts on %u "
                 "workers\n",
                 spec.name.c_str(), static_cast<unsigned long long>(seed),
                 num_cells, static_cast<unsigned long long>(spec.budget),
                 num_workers);
    std::vector<double> setup_s;
    const auto setup_start = Clock::now();
    const Prepared prep = prepare(spec, seed);
    setup_s.push_back(secondsSince(setup_start));

    std::vector<Worker> workers;
    workers.reserve(num_workers);
    for (unsigned i = 0; i < num_workers; ++i)
        workers.emplace_back(num_cells);
    {
        const auto start = Clock::now();
        std::vector<std::thread> threads;
        for (Worker &w : workers) {
            threads.emplace_back([&, worker = &w] {
                try {
                    measure(spec, seed, seconds, trace != 0, start, prep,
                            worker == &workers.front(), *worker);
                } catch (const std::exception &e) {
                    worker->error = e.what();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    // Merge: every worker must have produced the same results.
    const Worker &lead = workers.front();
    Tally tally;
    std::vector<double> best_s = lead.bestS;
    std::map<std::pair<std::string, std::size_t>, double> best_by_cell;
    for (const Worker &w : workers) {
        if (!w.error.empty()) {
            std::fprintf(stderr, "perfbench: worker failed: %s\n",
                         w.error.c_str());
            return 1;
        }
        std::fprintf(stderr, "perfbench: worker: %u passes, %zu set-ups\n",
                     w.passes, w.setupS.size());
        tally.attempted += w.tally.attempted;
        tally.failed += w.tally.failed;
        if (w.checker.firstLines() != lead.checker.firstLines())
            tally.fail("workers disagree on cell results");
        for (std::size_t c = 0; c < num_cells; ++c)
            best_s[c] = std::min(best_s[c], w.bestS[c]);
        setup_s.insert(setup_s.end(), w.setupS.begin(), w.setupS.end());
        w.tracer.foldBestSelfNs(best_by_cell);
    }

    // Untimed checks: the co-simulation oracle on the first cell (it
    // must be clean and must not change the result), and one cell of
    // the committed figure cache reproduced exactly.
    ++tally.attempted;
    try {
        sim::ModelConfig cfg = prep.configs.front();
        cfg.cosim = true;
        sim::ParrotSimulator s(cfg, prep.loads.front());
        const sim::SimResult r = s.run(spec.budget, prep.pmax);
        const std::string diff = diffPmaxFree(lead.firstResult, r);
        if (!r.cosimEnabled || r.cosimMismatches != 0 || !diff.empty())
            tally.fail("co-simulation check on " + cfg.name + "/" + r.app +
                       (diff.empty() ? std::string{} : ": " + diff));
    } catch (const std::exception &e) {
        tally.fail(std::string("co-simulation check: ") + e.what());
    }
    ++tally.attempted;
    const std::string ref_err =
        referenceError(reference, spec.refModel, spec.refApp);
    if (!ref_err.empty())
        tally.fail("reference cell " + ref_err);

    double pass_insts = 0.0;
    for (std::uint64_t n : lead.cellInsts)
        pass_insts += static_cast<double>(n);
    std::vector<Metric> metrics;
    if (!trace) {
        double pass_s = 0.0;
        std::vector<double> best_ms;
        for (double s : best_s) {
            pass_s += s;
            best_ms.push_back(s * 1e3);
        }
        struct rusage usage_now;
        getrusage(RUSAGE_SELF, &usage_now);
        metrics = {
            {"mips", ratio(pass_insts / 1e6, pass_s), "Minst/s"},
            {"cell_ms_p50", quantile(best_ms, 0.5), "ms"},
            {"cell_ms_p90", quantile(best_ms, 0.9), "ms"},
            {"peak_rss_mib",
             static_cast<double>(usage_now.ru_maxrss) / 1024.0, "MiB"},
            {"setup_s", median(setup_s), "s"},
        };
    } else {
        if (!spans_path.empty()) {
            std::ofstream out(spans_path);
            for (unsigned i = 0; i < num_workers; ++i)
                workers[i].tracer.write(out, i);
            if (!out) {
                std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                             spans_path.c_str());
                return 1;
            }
        }
        // Per layer: each cell's fastest self time, summed over cells.
        std::map<std::string, double> best_ns;
        for (const auto &[key, ns] : best_by_cell)
            best_ns[key.first] += ns;
        auto best = [&](const char *name) {
            auto it = best_ns.find(name);
            return it == best_ns.end() ? 0.0 : it->second;
        };
        // Every replay handles the full budget of every cell.
        const double stream_insts =
            static_cast<double>(spec.budget * num_cells);
        auto per_inst = [&](const char *layer) {
            return ratio(best(layer), stream_insts);
        };
        const LayerTotals &totals = lead.totals;
        metrics = {
            {"sim_ns_per_inst", ratio(best("simulate"), pass_insts),
             "ns/inst"},
            {"construct_us",
             best("construct") / 1e3 / static_cast<double>(num_cells), "us"},
            {"source_ns_per_inst", per_inst("source"), "ns/inst"},
            {"frontend_ns_per_inst", per_inst("frontend"), "ns/inst"},
            {"traceunit_ns_per_inst", per_inst("traceunit"), "ns/inst"},
            {"optimizer_ns_per_inst", per_inst("optimizer"), "ns/inst"},
            {"core_ns_per_inst", per_inst("core"), "ns/inst"},
            {"power_stats_ns_per_inst", per_inst("power_stats"), "ns/inst"},
            {"tc_coverage",
             ratio(static_cast<double>(totals.uopsFromTc),
                   static_cast<double>(totals.uopsFromTc +
                                       totals.uopsFromCold)),
             "ratio"},
            {"trace_abort_rate",
             ratio(static_cast<double>(totals.traceAborts),
                   static_cast<double>(totals.tracePredictions)),
             "ratio"},
            {"cold_mispredict_rate",
             ratio(static_cast<double>(totals.coldMispredicts),
                   static_cast<double>(totals.coldBranches)),
             "ratio"},
            {"opt_uop_reduction",
             ratio(static_cast<double>(totals.optUopsBefore -
                                       totals.optUopsAfter),
                   static_cast<double>(totals.optUopsBefore)),
             "ratio"},
            {"sim_ipc",
             ratio(static_cast<double>(totals.simInsts),
                   static_cast<double>(totals.simCycles)),
             "inst/cycle"},
        };
    }
    printResult(tally, metrics);
    return 0;
}
