/**
 * @file
 * The repository benchmark driver. One process runs one workload
 * through the libraries' public functions, checks every output
 * against reference digests, and prints its metrics as the last
 * line of stdout:
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --ref DIR --out DIR [--smoke] [--record]
 *             [--record-counts] [--corrupt-digest]
 *
 * Workloads (see README.md for why each exists):
 *   reproduce_all       the 22 experiments through one RunContext,
 *                       4 threads, with 100 design-space queries on
 *                       never-reused chips between them, 1 thread
 *   kernels_and_design  cold quality profiles and the Sec. 6.2
 *                       canneal error-mode matrix, with 100 design
 *                       queries spread between their steps, 1 thread
 *
 * --trace 0 measures the end-to-end metrics with no spans and the
 * stats registry off. --trace 1 runs one pass untraced and one
 * traced (benchmark spans around each call into a layer, stats
 * registry on), reports the per-layer metrics, prints a self-time
 * table and writes the spans as Chrome-trace JSON.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/accordion.hpp"
#include "core/quality_profile.hpp"
#include "fault/fault.hpp"
#include "harness/experiment.hpp"
#include "harness/run_context.hpp"
#include "harness/silencer.hpp"
#include "obs/clock.hpp"
#include "obs/snapshot.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "rms/workload.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace accordion;

namespace {

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------
// Digests: FNV-1a over raw bytes. Doubles are hashed by their bit
// pattern, so any change in any digit of any output is a mismatch.

class Digest
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void real(double v) { bytes(&v, sizeof v); }
    void count(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    reals(const std::vector<double> &v)
    {
        count(v.size());
        bytes(v.data(), v.size() * sizeof(double));
    }
    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
fileDigest(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "missing";
    std::ostringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    Digest d;
    d.bytes(s.data(), s.size());
    return d.hex();
}

/**
 * The output gate: expected digests and work counts ("key value"
 * lines) from `<ref>/<workload>.txt`, plus the design queries'
 * per-chip digests from `<ref>/design.txt`, which both workloads
 * share. In record mode it collects digests (or, with recordCounts,
 * counts) instead and writes them back, keeping the entries it did
 * not re-record.
 */
class Gate
{
  public:
    Gate(const fs::path &ref, const std::string &workload, bool record,
         bool record_counts, bool corrupt)
        : file_(ref / (workload + ".txt")), designFile_(ref / "design.txt"),
          record_(record), recordCounts_(record_counts), corrupt_(corrupt)
    {
        for (const fs::path &path : {file_, designFile_}) {
            std::ifstream in(path);
            if (!in && !record_ && !recordCounts_)
                die("no reference digests at " + path.string());
            std::string key, digest;
            while (in >> key >> digest)
                expected_[key] = digest;
        }
        if (expected_.empty() && !record_)
            die("empty reference files in " + ref.string());
    }

    /** Check one output; false (and counted) on a mismatch. */
    bool
    check(const std::string &key, const std::string &digest)
    {
        return compare(key, digest, record_);
    }

    /** Check one work count, which must repeat exactly. */
    bool
    checkCount(const std::string &key, double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return compare(key, buf, recordCounts_);
    }

    /** A condition every run must meet, counted like an output. */
    bool
    require(const std::string &what, bool ok)
    {
        ++checked_;
        if (!ok && ++failed_ <= 5)
            std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
        return ok;
    }

    /** Every expected key with a given prefix (sorted). */
    std::vector<std::string>
    keys(const std::string &prefix) const
    {
        std::vector<std::string> out;
        for (const auto &[key, digest] : expected_)
            if (key.rfind(prefix, 0) == 0)
                out.push_back(key);
        return out;
    }

    void
    write() const
    {
        std::map<std::string, std::string> merged = expected_;
        for (const auto &[key, digest] : recorded_)
            merged[key] = digest;
        std::ofstream out(file_), design(designFile_);
        for (const auto &[key, digest] : merged)
            (key.rfind("chip.", 0) == 0 ? design : out)
                << key << ' ' << digest << '\n';
        if (!out || !design)
            die("cannot write " + file_.string());
        std::fprintf(stderr, "perfbench: recorded %zu entries to %s\n",
                     recorded_.size(), file_.parent_path().string().c_str());
    }

    std::uint64_t checked() const { return checked_; }
    std::uint64_t failed() const { return failed_; }

  private:
    bool
    compare(const std::string &key, const std::string &got, bool record)
    {
        ++checked_;
        if (record) {
            recorded_[key] = got;
            return true;
        }
        auto it = expected_.find(key);
        std::string want = it == expected_.end() ? "absent" : it->second;
        if (corrupt_) {
            // Self-test: the first expected digest is made wrong.
            want = "0" + want;
            corrupt_ = false;
        }
        if (want == got)
            return true;
        if (++failed_ <= 5)
            std::fprintf(stderr, "perfbench: output %s: %s, reference %s\n",
                         key.c_str(), got.c_str(), want.c_str());
        return false;
    }

    fs::path file_;
    fs::path designFile_;
    bool record_;
    bool recordCounts_;
    bool corrupt_;
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> recorded_;
    std::uint64_t checked_ = 0;
    std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------
// Spans: recorded by this file only, around its own calls into each
// layer, on the main thread. Off means no clock read at all.

struct Span
{
    std::string name; //!< "<layer>.<what>"
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
};

class Tracer
{
  public:
    bool on = false;
    std::vector<Span> spans;

    int
    open(std::string name)
    {
        if (!on)
            return -1;
        spans.push_back({std::move(name), obs::nowNs(), 0, current_});
        current_ = static_cast<int>(spans.size()) - 1;
        return current_;
    }

    void
    close(int index)
    {
        if (index < 0)
            return;
        spans[index].endNs = obs::nowNs();
        current_ = spans[index].parent;
    }

  private:
    int current_ = -1;
};

Tracer g_tracer;

class Scope
{
  public:
    explicit Scope(std::string name) : index_(g_tracer.open(std::move(name))) {}
    ~Scope() { g_tracer.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int index_;
};

double
seconds(const Span &s)
{
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

// ---------------------------------------------------------------
// Host measurements.

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
        1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<std::size_t>(CPU_COUNT(&set));
}

double
nowSeconds()
{
    return static_cast<double>(obs::nowNs()) * 1e-9;
}

double
quantile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return obs::sortedQuantile(v, p);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 50.0);
}

void
pinPool(std::size_t threads)
{
    util::ThreadPool::setGlobalThreads(threads);
    if (util::ThreadPool::global().size() != threads)
        die("thread pool did not take its pinned size");
}

// ---------------------------------------------------------------
// Options and workload plumbing.

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
    bool record = false;
    bool recordCounts = false;
    bool corrupt = false;
    fs::path ref;
    fs::path out;
};

/** What a workload hands back from its timed phase. */
struct Phase
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> passS; //!< one entry per pass
};

/**
 * Passes per run at most. Every run of a workload then does the same
 * work, and its length does not depend on how fast the host happens
 * to be; wall_s and cpu_s are per pass.
 */
constexpr std::size_t kMaxPasses = 2;

/**
 * One workload: a set-up per pass, then a timed phase of whole passes
 * over the workload. Each pass makes design queries between its other
 * steps; their latencies give the query metrics.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Pool size of the timed phase. */
    virtual std::size_t threads() const = 0;
    /** Pool size of the set-up. */
    virtual std::size_t setupThreads() const { return threads(); }
    /** Set-ups per run; setup_s is their median. */
    virtual std::size_t setupReps() const = 0;
    virtual void setup() = 0;
    /** Run one pass; index is its position in the phase. */
    virtual void pass(std::size_t index) = 0;
    /** Per-layer metrics from the traced half. */
    virtual void layerMetrics(const std::vector<Span> &spans,
                              std::map<std::string, double> *out) = 0;

    /** Latency of every design query made in the passes so far. */
    std::vector<double> queryMs;
};

Phase
timedPhase(Workload &w, double until_s, std::size_t passes)
{
    Phase phase;
    const double cpu0 = cpuSeconds();
    const double t0 = nowSeconds();
    for (std::size_t i = 0; i < passes; ++i) {
        const double p0 = nowSeconds();
        {
            Scope span("bench.pass");
            w.pass(i);
        }
        const double p1 = nowSeconds();
        phase.passS.push_back(p1 - p0);
        if (p1 - t0 >= until_s)
            break;
    }
    phase.wallS = nowSeconds() - t0;
    phase.cpuS = cpuSeconds() - cpu0;
    return phase;
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

void
digestResult(Digest *d, const rms::RunResult &r)
{
    d->reals(r.output);
    d->real(r.problemSize);
    d->count(r.taskSet.numTasks);
    d->real(r.taskSet.instrPerTask);
    d->real(r.taskSet.ccFrequencyHz);
}

void
digestProfile(Digest *d, const core::QualityProfile &p)
{
    for (const core::ProfileCurve *c :
         {&p.defaultCurve(), &p.dropQuarterCurve(), &p.dropHalfCurve()}) {
        d->reals(c->psRatio);
        d->reals(c->qRatio);
    }
    d->real(p.defaultProblemSize());
    d->real(p.defaultQuality());
    d->real(p.defaultInstrPerTask());
    d->count(p.threads());
}

const std::vector<std::string> kKernels = {
    "canneal", "ferret", "bodytrack", "x264", "hotspot", "srad"};

// ---------------------------------------------------------------
// Design-space queries: one query is one never-seen chip.

/** Chip ids a run draws from; every one has a reference digest. */
constexpr std::size_t kChipPool = 8192;

/** Design-space queries per pass. */
constexpr std::size_t kChipsPerPass = 100;

std::uint64_t
splitmix(std::uint64_t *state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
digestFront(Digest *d, const std::vector<core::OperatingPoint> &front)
{
    d->count(front.size());
    for (const core::OperatingPoint &p : front) {
        for (double v : {p.psRatio, p.fHz, p.perr, p.dropFraction,
                         p.execSeconds, p.powerW, p.mips,
                         p.mipsPerWatt, p.qualityRatio})
            d->real(v);
        d->count(p.n);
        d->count((p.withinBudget ? 1u : 0u) | (p.feasible ? 2u : 0u));
    }
}

/**
 * Design-space queries, made by both workloads: one
 * AccordionSystem with its six profiles, then per query a fresh chip
 * through ChipFactory, ParetoExtractor and PerfModel, on one thread.
 */
class DesignQueries
{
  public:
    DesignQueries(Gate &gate, const Options &o) : gate_(gate), o_(o)
    {
        // The seed picks the order chips are visited in; a run
        // never revisits a chip, so no chip-level cache can help.
        chips_.resize(kChipPool);
        for (std::size_t i = 0; i < kChipPool; ++i)
            chips_[i] = i;
        std::uint64_t state = o.seed;
        for (std::size_t i = kChipPool - 1; i > 0; --i)
            std::swap(chips_[i], chips_[splitmix(&state) % (i + 1)]);
        if (o.record)
            std::sort(chips_.begin(), chips_.end());
    }

    /** Build a system of our own and measure its six profiles. */
    void
    setup()
    {
        owned_.reset();
        core::AccordionSystem::Config config;
        config.seed = 12345;
        config.perfEngine = core::PerfEngine::Analytic;
        owned_ = std::make_unique<core::AccordionSystem>(config);
        measureProfiles(*owned_);
        for (const std::string &k : kKernels) {
            Digest d;
            digestProfile(&d, owned_->profile(k));
            gate_.check("system_profile." + k, d.hex());
        }
        use(*owned_);
    }

    /** Measure the six profiles the queries need (set-up work). */
    static void
    measureProfiles(core::AccordionSystem &system)
    {
        for (const std::string &k : kKernels) {
            Scope span("core." + k + ".system_profile");
            system.profile(k);
        }
    }

    /** Query against `system`, whose profiles are measured. */
    void
    use(core::AccordionSystem &system)
    {
        system_ = &system;
        workloads_.clear();
        profiles_.clear();
        for (const std::string &k : kKernels) {
            workloads_.push_back(&rms::findWorkload(k));
            profiles_.push_back(&system.profile(k));
        }
    }

    /** Queries per pass. */
    std::size_t
    perPass() const
    {
        return o_.smoke ? 10 : (o_.record ? kChipPool : kChipsPerPass);
    }

    /** The i-th query of a pass; each pass visits chips no earlier
     *  pass of the run has seen. Returns its latency in ms. */
    double
    timedQuery(std::size_t pass, std::size_t i)
    {
        const double t0 = nowSeconds();
        query(pass * perPass() + i);
        return (nowSeconds() - t0) * 1e3;
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 std::map<std::string, double> *out) const
    {
        // Per-query totals of each call kind, then their median.
        std::map<int, std::map<std::string, double>> by_query;
        for (const Span &s : spans)
            if (s.parent >= 0 && spans[s.parent].name == "bench.chip")
                by_query[s.parent][s.name] += seconds(s);
        std::map<std::string, std::vector<double>> per_query;
        for (const auto &[query, totals] : by_query)
            for (const auto &[name, total] : totals)
                per_query[name].push_back(total);
        const auto med = [&](const std::string &name, double scale) {
            const auto &v = per_query[name];
            return v.empty() ? 0.0 : median(v) * scale;
        };
        (*out)["vartech.make_chip_ms"] = med("vartech.make_chip", 1e3);
        (*out)["core.extractor_ms"] = med("core.extractor", 1e3);
        (*out)["core.extract_safe_ms"] = med("core.extract_safe", 1e3);
        (*out)["core.extract_spec_ms"] = med("core.extract_spec", 1e3);
        (*out)["manycore.estimate_us"] = med("manycore.estimate", 1e6);
    }

  private:
    /** Query the index-th chip of this run's order. */
    void
    query(std::size_t index)
    {
        Scope span("bench.chip");
        const std::uint64_t chip_id = chips_[index % kChipPool];
        std::optional<vartech::VariationChip> chip;
        {
            Scope span("vartech.make_chip");
            chip.emplace(system_->factory().make(chip_id));
        }
        std::optional<core::ParetoExtractor> extractor;
        {
            Scope span("core.extractor");
            extractor.emplace(*chip, system_->powerModel(),
                              system_->perfModel(),
                              system_->config().pareto);
        }
        Digest d;
        bool consistent = true;
        for (std::size_t k = 0; k < workloads_.size(); ++k) {
            const rms::Workload &w = *workloads_[k];
            const core::QualityProfile &prof = *profiles_[k];
            std::vector<core::OperatingPoint> safe, spec;
            {
                Scope span("core.extract_safe");
                safe = extractor->extract(w, prof, core::Flavor::Safe);
            }
            {
                Scope span("core.extract_spec");
                spec = extractor->extract(w, prof,
                                          core::Flavor::Speculative);
            }
            core::StvBaseline base;
            {
                Scope span("core.baseline");
                base = extractor->baseline(w, prof);
            }
            // The Section 9 headline: best feasible, within-budget
            // efficiency gain on the Speculative front.
            double gain = 0.0;
            const core::OperatingPoint *best = &spec.back();
            for (const core::OperatingPoint &p : spec)
                if (p.feasible && p.withinBudget &&
                    p.efficiencyRatio(base) > gain) {
                    gain = p.efficiencyRatio(base);
                    best = &p;
                }
            std::vector<std::size_t> cores;
            manycore::TaskSet tasks;
            {
                Scope span("core.select_cores");
                cores = extractor->selector().selectCores(best->n);
                tasks.numTasks = best->n;
                tasks.instrPerTask = prof.defaultInstrPerTask() *
                    static_cast<double>(prof.threads()) * best->psRatio /
                    static_cast<double>(best->n);
                tasks.ccFrequencyHz = chip->coreSafeF(
                    extractor->selector().fastestCore());
            }
            manycore::ExecutionEstimate est;
            {
                Scope span("manycore.estimate");
                est = system_->perfModel().estimate(
                    chip->geometry(), cores, best->fHz, tasks, w.traits(),
                    chip->technology().fNtv() / best->fHz);
            }
            // Re-estimating the chosen point must reproduce the
            // front's own execution time exactly.
            consistent = consistent && est.seconds == best->execSeconds;
            digestFront(&d, safe);
            digestFront(&d, spec);
            d.real(gain);
            d.real(est.seconds);
            d.real(est.avgCoreUtilization);
            d.real(est.maxBusUtilization);
            if (!std::isfinite(gain))
                consistent = false;
        }
        gate_.check("chip." + std::to_string(chip_id),
                    consistent ? d.hex() : "inconsistent");
    }

    Gate &gate_;
    const Options &o_;
    std::vector<std::uint64_t> chips_;
    std::unique_ptr<core::AccordionSystem> owned_;
    core::AccordionSystem *system_ = nullptr;
    std::vector<const rms::Workload *> workloads_;
    std::vector<const core::QualityProfile *> profiles_;
};

// ---------------------------------------------------------------
// reproduce_all: one pass is one full `run all`, with design queries
// on the reproduced system between the experiments.

const std::vector<std::string> kNamedExperiments = {
    "comparison_baselines",         "ext_weak_scaling",
    "fig2_fig4_quality_fronts",     "fig6_pareto_parsec",
    "sec62_error_model_validation", "table3_characterization"};

class ReproduceAll final : public Workload
{
  public:
    ReproduceAll(Gate &gate, const Options &o)
        : gate_(gate), o_(o), dir_(o.out / "reproduce_all"), design_(gate, o)
    {
        // The output directory starts empty, and each pass empties
        // it again, so a CSV that is no longer written cannot pass
        // on a stale copy.
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        for (const harness::Experiment *e :
             harness::Registry::instance().all())
            if (!o_.smoke || smokeSet().count(e->name()))
                experiments_.push_back(e);
    }

    std::size_t threads() const override { return 4; }
    std::size_t setupReps() const override { return o_.smoke ? 1 : kMaxPasses; }

    /**
     * Build the RunContext of one pass: its shared system (seed
     * 12345, chip 0) with the six kernels' quality profiles, which
     * the experiments and the design queries then use.
     */
    void
    setup() override
    {
        harness::RunContext::Options options;
        options.seed = 12345;
        options.outDir = dir_.string();
        options.format = harness::OutputFormat::Csv;
        auto ctx = std::make_unique<harness::RunContext>(options);
        DesignQueries::measureProfiles(ctx->system());
        contexts_.push_back(std::move(ctx));
    }

    void
    pass(std::size_t index) override
    {
        if (contexts_.empty())
            die("reproduce_all: a pass without its set-up");
        const std::unique_ptr<harness::RunContext> ctx =
            std::move(contexts_.front());
        contexts_.pop_front();
        for (const auto &entry : fs::directory_iterator(dir_))
            fs::remove(entry.path());
        design_.use(ctx->system());
        const std::size_t chips = design_.perPass();
        std::size_t done = 0;
        for (std::size_t s = 0; s < experiments_.size(); ++s) {
            {
                harness::StdoutSilencer quiet;
                Scope span("harness." + experiments_[s]->name());
                experiments_[s]->run(*ctx);
            }
            // The design queries run on one thread, as they do in
            // kernels_and_design, spread evenly between experiments.
            const std::size_t until = (s + 1) * chips / experiments_.size();
            if (done == until)
                continue;
            pinPool(1);
            for (; done < until; ++done)
                queryMs.push_back(design_.timedQuery(index, done));
            pinPool(threads());
        }
        systemBuilds_ = ctx->systemBuilds();

        std::vector<std::string> names;
        if (o_.record) {
            for (const auto &entry : fs::directory_iterator(dir_))
                names.push_back(entry.path().stem().string());
        } else {
            for (const std::string &key : gate_.keys("csv."))
                names.push_back(key.substr(4));
        }
        for (const std::string &name : names) {
            const fs::path file = dir_ / (name + ".csv");
            // A smoke run writes only its subset of the CSVs.
            if (o_.smoke && !fs::exists(file))
                continue;
            gate_.check("csv." + name, fileDigest(file));
        }
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 std::map<std::string, double> *out) override
    {
        double other = 0.0;
        std::map<std::string, double> named;
        for (const std::string &e : kNamedExperiments)
            named[e] = 0.0;
        for (const Span &s : spans) {
            if (layerOf(s.name) != "harness")
                continue;
            const std::string e = s.name.substr(8);
            if (named.count(e))
                named[e] += seconds(s);
            else
                other += seconds(s);
        }
        for (const auto &[e, s] : named)
            (*out)["harness." + e + ".wall_s"] = s;
        (*out)["harness.other.wall_s"] = other;
        (*out)["harness.system_builds"] =
            static_cast<double>(systemBuilds_);
        design_.layerMetrics(spans, out);
    }

  private:
    static const std::set<std::string> &
    smokeSet()
    {
        static const std::set<std::string> set = {
            "fig1a_operating_point", "fig1b_error_rate",
            "fig1c_guardband", "table2_parameters"};
        return set;
    }

    Gate &gate_;
    const Options &o_;
    fs::path dir_;
    std::vector<const harness::Experiment *> experiments_;
    /** One context per set-up, taken in order by the passes. */
    std::deque<std::unique_ptr<harness::RunContext>> contexts_;
    std::size_t systemBuilds_ = 0;
    DesignQueries design_;
};

// ---------------------------------------------------------------
// kernels_and_design: one pass is the kernel and error-mode steps,
// with design queries between them.

std::string
faultGroup(fault::ErrorMode mode)
{
    switch (mode) {
    case fault::ErrorMode::Drop:
        return "drop";
    case fault::ErrorMode::RandomFlip:
    case fault::ErrorMode::Invert:
        return "flip";
    case fault::ErrorMode::InvertDecision:
        return "invert_decision";
    default:
        return "stuck_at";
    }
}

std::string
keyName(std::string s)
{
    std::replace(s.begin(), s.end(), ' ', '_');
    return s;
}

/**
 * Everything single-threaded: the kernels' cold profiles and the
 * Sec. 6.2 error-mode matrix, with a batch of design-space queries
 * spread between their steps.
 */
class KernelsAndDesign final : public Workload
{
  public:
    KernelsAndDesign(Gate &gate, const Options &o)
        : gate_(gate), o_(o), design_(gate, o)
    {
        for (const std::string &k : kKernels)
            if (!o_.smoke || k == "hotspot" || k == "srad")
                kernels_.push_back(&rms::findWorkload(k));
        // The Sec. 6.2 matrix: Drop, the eight corruption modes,
        // then inverted decisions, each at 1/4 and 1/2 infected.
        std::vector<fault::ErrorMode> modes = {fault::ErrorMode::Drop};
        for (fault::ErrorMode m : fault::corruptionModes())
            modes.push_back(m);
        modes.push_back(fault::ErrorMode::InvertDecision);
        if (o_.smoke)
            modes = {fault::ErrorMode::Drop,
                     fault::ErrorMode::InvertDecision};
        for (fault::ErrorMode m : modes)
            for (double fraction : {0.25, 0.5})
                plans_.emplace_back(m, fraction);
    }

    // The design system's profiles fan out over the whole pool in
    // set-up. The passes run on one thread: at 4 threads the many
    // small parallelFors of a design query made its latency swing
    // by more than 2x between runs on a shared 4-CPU host.
    std::size_t threads() const override { return 1; }
    std::size_t setupThreads() const override { return 4; }
    std::size_t setupReps() const override { return o_.smoke ? 1 : kMaxPasses; }

    void setup() override { design_.setup(); }

    void
    pass(std::size_t index) override
    {
        canneal_ = Canneal{};
        std::vector<std::function<void()>> steps;
        for (const rms::Workload *w : kernels_)
            for (int part = 0; part < 3; ++part)
                steps.push_back([this, w, part] { kernelStep(*w, part); });
        steps.push_back([this] { cannealBase(); });
        for (const fault::FaultPlan &plan : plans_)
            steps.push_back([this, &plan] { faultStep(plan); });

        // The design queries are spread evenly between the steps, so
        // they meet the host's fast and slow phases as the rest of
        // the pass does.
        const std::size_t chips = design_.perPass();
        std::size_t done = 0;
        for (std::size_t s = 0; s < steps.size(); ++s) {
            steps[s]();
            for (const std::size_t until = (s + 1) * chips / steps.size();
                 done < until; ++done)
                queryMs.push_back(design_.timedQuery(index, done));
        }
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 std::map<std::string, double> *out) override
    {
        std::map<std::string, std::vector<double>> by;
        for (const Span &s : spans)
            by[s.name].push_back(seconds(s));
        for (const std::string &k : kKernels) {
            (*out)["core." + k + ".profile_s"] =
                sum(by["core." + k + ".profile"]);
            (*out)["rms." + k + ".reference_s"] =
                sum(by["rms." + k + ".reference"]);
            (*out)["rms." + k + ".run_ms"] =
                sum(by["rms." + k + ".run"]) * 1e3;
        }
        for (const char *g :
             {"drop", "stuck_at", "flip", "invert_decision"}) {
            const auto &v = by[std::string("fault.") + g + ".canneal"];
            (*out)[std::string("fault.") + g + ".canneal_ms"] =
                v.empty() ? 0.0 : median(v) * 1e3;
        }
        design_.layerMetrics(spans, out);
    }

  private:
    /** Canneal's runs at its default input, as Sec. 6.2 uses them. */
    struct Canneal
    {
        std::optional<rms::RunResult> ref, run;
        double qNominal = 0.0;
        rms::RunConfig base;
    };

    /** Part 0: runReference; 1: run at the default input; 2: a cold
     *  QualityProfile::measure. Seed 42 throughout. */
    void
    kernelStep(const rms::Workload &w, int part)
    {
        const std::string &k = w.name();
        Digest d;
        if (part == 2) {
            core::QualityProfile profile;
            {
                Scope span("core." + k + ".profile");
                profile = core::QualityProfile::measure(w, 42);
            }
            digestProfile(&d, profile);
            gate_.check("profile." + k, d.hex());
            return;
        }
        rms::RunResult r;
        if (part == 0) {
            Scope span("rms." + k + ".reference");
            r = w.runReference(42);
        } else {
            Scope span("rms." + k + ".run");
            r = w.run(defaultConfig(w));
        }
        digestResult(&d, r);
        gate_.check((part == 0 ? "reference." : "run.") + k, d.hex());
        if (k == "canneal")
            (part == 0 ? canneal_.ref : canneal_.run) = std::move(r);
    }

    static rms::RunConfig
    defaultConfig(const rms::Workload &w)
    {
        rms::RunConfig c;
        c.input = w.defaultInput();
        c.threads = w.defaultThreads();
        c.seed = 42;
        return c;
    }

    /** The nominal canneal quality the error modes are relative to. */
    void
    cannealBase()
    {
        // Sec. 6.2 runs canneal at its default input and profiling
        // thread count: the runs the kernel steps already made. A
        // smoke pass skips canneal there and makes them here.
        const rms::Workload &w = rms::findWorkload("canneal");
        canneal_.base = defaultConfig(w);
        if (!canneal_.ref) {
            Scope span("rms.canneal.reference");
            canneal_.ref = w.runReference(42);
        }
        if (!canneal_.run) {
            Scope span("rms.canneal.run");
            canneal_.run = w.run(canneal_.base);
        }
        canneal_.qNominal = w.quality(*canneal_.run, *canneal_.ref);
    }

    /** One cell of the Sec. 6.2 error-model validation matrix. */
    void
    faultStep(const fault::FaultPlan &plan)
    {
        const rms::Workload &w = rms::findWorkload("canneal");
        rms::RunConfig c = canneal_.base;
        c.fault = plan;
        double q = 0.0;
        {
            Scope span("fault." + faultGroup(plan.mode()) + ".canneal");
            q = w.qualityOf(c, *canneal_.ref) / canneal_.qNominal;
        }
        Digest d;
        d.real(q);
        gate_.check("sec62." + keyName(fault::errorModeName(plan.mode())) +
                        (plan.fraction() < 0.3 ? ".q25" : ".q50"),
                    d.hex());
    }

    Gate &gate_;
    const Options &o_;
    std::vector<const rms::Workload *> kernels_;
    std::vector<fault::FaultPlan> plans_;
    DesignQueries design_;
    Canneal canneal_;
};

// ---------------------------------------------------------------
// Reporting.

/** Every per-layer metric name; each trace run reports all of them. */
std::vector<std::string>
layerMetricNames()
{
    std::vector<std::string> names;
    for (const std::string &e : kNamedExperiments)
        names.push_back("harness." + e + ".wall_s");
    names.push_back("harness.other.wall_s");
    names.push_back("harness.system_builds");
    for (const std::string &k : kKernels) {
        names.push_back("core." + k + ".profile_s");
        names.push_back("rms." + k + ".reference_s");
        names.push_back("rms." + k + ".run_ms");
    }
    for (const char *g : {"drop", "stuck_at", "flip", "invert_decision"})
        names.push_back(std::string("fault.") + g + ".canneal_ms");
    for (const char *n :
         {"vartech.make_chip_ms", "core.extractor_ms",
          "core.extract_safe_ms", "core.extract_spec_ms",
          "manycore.estimate_us", "rms.kernel_runs", "vartech.chips",
          "core.pareto_points", "util.pool.parallel_fors",
          "util.pool.tasks", "util.pool.busy_frac",
          "obs.trace_overhead_frac", "obs.span_coverage_frac",
          "failed_frac"})
        names.push_back(n);
    return names;
}

std::string
unitOf(const std::string &name)
{
    const auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
            name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_per_s"))
        return "1/s";
    if (ends("_ms"))
        return "ms";
    if (ends("_us"))
        return "us";
    if (ends("_s"))
        return "s";
    if (ends("_frac"))
        return "frac";
    if (ends("_mb"))
        return "MB";
    return "count";
}

void
printResult(const Gate &gate, const std::vector<std::string> &order,
            const std::map<std::string, double> &metrics)
{
    std::string json = "{\"correct\": ";
    json += gate.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(gate.checked());
    json += ", \"failed\": " + std::to_string(gate.failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : order) {
        auto it = metrics.find(name);
        if (it == metrics.end())
            die("metric " + name + " was not measured");
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            obs::jsonNumber(it->second) + ", \"unit\": \"" +
            unitOf(name) + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** Self time per layer over the spans under `root`; returns coverage. */
double
selfTimeTable(const std::vector<Span> &spans, int root)
{
    std::vector<bool> inside(spans.size(), false);
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        inside[i] = static_cast<int>(i) == root || (p >= 0 && inside[p]);
        if (inside[i])
            self[i] += seconds(spans[i]);
        if (inside[i] && static_cast<int>(i) != root)
            self[p] -= seconds(spans[i]);
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (inside[i])
            by_layer[layerOf(spans[i].name)] += self[i];
    const double wall = seconds(spans[root]);
    std::fprintf(stderr, "%-10s %12s %8s\n", "layer", "self_s", "share");
    for (const auto &[layer, s] : by_layer)
        std::fprintf(stderr, "%-10s %12.6f %7.2f%%\n", layer.c_str(), s,
                     100.0 * s / wall);
    const double coverage = 1.0 - by_layer["bench"] / wall;
    std::fprintf(stderr, "layer spans cover %.2f%% of the traced phase "
                 "(%.3f s)\n", 100.0 * coverage, wall);
    return coverage;
}

void
writeTrace(const fs::path &path, const std::vector<Span> &spans,
           const char *workload, obs::TraceWriter &writer)
{
    for (const Span &s : spans)
        writer.span(workload, s.name, s.startNs, s.endNs);
    writer.close();
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n",
                 spans.size(), path.string().c_str());
}


/** Set up on the set-up pool, then pin the timed phase's pool. */
void
setUp(Workload &w)
{
    pinPool(w.setupThreads());
    w.setup();
    pinPool(w.threads());
}

/** Time the workload's set-ups; each pass uses one. */
double
timedSetup(Workload &w)
{
    std::vector<double> times;
    for (std::size_t i = 0; i < w.setupReps(); ++i) {
        const double t0 = nowSeconds();
        setUp(w);
        times.push_back(nowSeconds() - t0);
    }
    return median(times);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die(arg + " wants a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                o.workload = value();
            } else if (arg == "--seed") {
                o.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value());
                have_seconds = o.seconds > 0.0;
            } else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1")
                    die("--trace wants 0 or 1");
                o.trace = t == "1";
                have_trace = true;
            } else if (arg == "--ref") {
                o.ref = value();
            } else if (arg == "--out") {
                o.out = value();
            } else if (arg == "--smoke") {
                o.smoke = true;
            } else if (arg == "--record") {
                o.record = true;
            } else if (arg == "--record-counts") {
                o.recordCounts = true;
            } else if (arg == "--corrupt-digest") {
                o.corrupt = true;
            } else {
                die("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            die("bad value for " + arg);
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace ||
        o.ref.empty() || o.out.empty())
        die("usage: perfbench --workload W --seed N --seconds S "
            "--trace 0|1 --ref DIR --out DIR [--smoke] [--record] "
            "[--record-counts] [--corrupt-digest]");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
#ifndef NDEBUG
    die("refusing to measure a build with assertions on (Debug)");
#endif
    std::map<std::string, std::string> env = obs::captureEnvironment();
    if (env["build_type"] == "debug" || env["build_type"].empty())
        die("refusing to measure build type '" + env["build_type"] + "'");

    Gate gate(o.ref, o.workload, o.record, o.recordCounts, o.corrupt);
    std::unique_ptr<Workload> w;
    if (o.workload == "reproduce_all")
        w = std::make_unique<ReproduceAll>(gate, o);
    else if (o.workload == "kernels_and_design")
        w = std::make_unique<KernelsAndDesign>(gate, o);
    else
        die("unknown workload " + o.workload);

    const std::size_t nproc = onlineCpus();
    const std::size_t pinned = std::max(w->threads(), w->setupThreads());
    if (pinned > nproc)
        die(o.workload + " pins " + std::to_string(pinned) +
            " threads but only " + std::to_string(nproc) +
            " CPUs are available");
    const char *env_threads = std::getenv("ACCORDION_THREADS");
    env["nproc"] = std::to_string(nproc);
    env["pool_threads"] = std::to_string(w->threads());
    env["setup_pool_threads"] = std::to_string(w->setupThreads());
    env["accordion_threads_env"] = env_threads ? env_threads : "unset";
    env["workload"] = o.workload;
    env["seed"] = std::to_string(o.seed);
    std::string env_json = "{\"environment\": {";
    for (const auto &[k, v] : env)
        env_json += (env_json.back() == '{' ? "\"" : ", \"") + k +
            "\": \"" + obs::jsonEscape(v) + "\"";
    std::printf("%s}}\n", env_json.c_str());
    fs::create_directories(o.out);
    obs::setCurrentThreadName("main");

    if (o.record && o.trace)
        die("--record takes --trace 0; counts are --record-counts");
    if (o.recordCounts && !o.trace)
        die("--record-counts takes --trace 1");
    if (o.record) {
        setUp(*w);
        timedPhase(*w, 1e300, 1);
        gate.write();
        return 0;
    }

    std::map<std::string, double> metrics;
    std::vector<std::string> order;
    if (!o.trace) {
        const double setup_s = timedSetup(*w);
        const Phase phase = timedPhase(
            *w, o.seconds, o.smoke ? 1 : kMaxPasses);
        const std::size_t passes = phase.passS.size();
        const std::vector<double> &queries = w->queryMs;
        metrics = {{"setup_s", setup_s},
                   {"wall_s", median(phase.passS)},
                   {"cpu_s", phase.cpuS / static_cast<double>(passes)},
                   {"peak_rss_mb", peakRssMb()},
                   {"queries_per_s", static_cast<double>(queries.size()) /
                        (sum(queries) * 1e-3)},
                   {"query_p50_ms", quantile(queries, 50.0)},
                   {"query_p90_ms", quantile(queries, 90.0)}};
        order = {"setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                 "queries_per_s", "query_p50_ms", "query_p90_ms"};
        // The sample counts behind the medians and percentiles.
        std::printf("{\"samples\": {\"setups\": %zu, \"passes\": %zu, "
                    "\"queries\": %zu}}\n",
                    w->setupReps(), passes, queries.size());
        std::fprintf(stderr, "perfbench: %s: %zu passes in %.3f s\n",
                     o.workload.c_str(), passes, phase.wallS);
    } else {
        const fs::path trace_path = o.out / ("trace_" + o.workload + ".json");
        obs::TraceWriter writer(trace_path.string());
        if (!writer.ok())
            die("cannot write " + trace_path.string());
        // Untraced half: one pass, stats off, no spans.
        setUp(*w);
        const Phase plain = timedPhase(*w, 1e300, 1);

        // Traced half: identical work with spans and stats on. The
        // pool is rebuilt so its counters bind to the registry.
        obs::StatsRegistry &registry = obs::StatsRegistry::global();
        registry.setEnabled(true);
        g_tracer.on = true;
        {
            Scope span("bench.setup");
            setUp(*w);
        }
        // Counts describe the timed phase only.
        registry.reset();
        const int root = static_cast<int>(g_tracer.spans.size());
        Phase traced;
        {
            Scope span("bench." + o.workload);
            traced = timedPhase(*w, 1e300, 1);
        }
        g_tracer.on = false;
        const double traced_wall = seconds(g_tracer.spans[root]);

        std::map<std::string, double> counts;
        std::uint64_t busy_ns = 0;
        for (const obs::StatEntry &e : registry.snapshot()) {
            counts[e.name] = static_cast<double>(e.count);
            if (e.name.rfind("pool.worker", 0) == 0 &&
                e.name.size() > 8 &&
                e.name.compare(e.name.size() - 8, 8, ".busy_ns") == 0)
                busy_ns += e.count;
        }
        // Rebuild the pool with its counters unbound. The global pool
        // outlives the function-local registry at exit, and a worker
        // that wakes to shut down would book idle time into a freed
        // registry cell.
        registry.setEnabled(false);
        pinPool(w->threads());

        // Every per-layer metric is reported; a layer this workload
        // bypasses reads 0.
        for (const std::string &name : layerMetricNames())
            metrics[name] = 0.0;
        w->layerMetrics(g_tracer.spans, &metrics);
        metrics["rms.kernel_runs"] = counts["quality.kernel_runs"];
        metrics["vartech.chips"] = counts["chip.manufactured"];
        metrics["core.pareto_points"] = counts["pareto.points"];
        metrics["util.pool.parallel_fors"] = counts["pool.parallel_fors"];
        metrics["util.pool.tasks"] = counts["pool.tasks"];
        metrics["util.pool.busy_frac"] = static_cast<double>(busy_ns) *
            1e-9 / (traced_wall * static_cast<double>(w->threads()));
        metrics["obs.trace_overhead_frac"] =
            traced.wallS / plain.wallS - 1.0;
        metrics["obs.span_coverage_frac"] =
            selfTimeTable(g_tracer.spans, root);
        gate.require("layer spans cover at least 95% of the traced pass",
                     metrics["obs.span_coverage_frac"] >= 0.95);
        // Work counts repeat exactly for a given workload and size.
        const std::string prefix = o.smoke ? "smoke.count." : "count.";
        for (const char *name : {"rms.kernel_runs", "vartech.chips",
                                 "core.pareto_points",
                                 "harness.system_builds"})
            gate.checkCount(prefix + name, metrics[name]);
        metrics["failed_frac"] = gate.checked()
            ? static_cast<double>(gate.failed()) /
                static_cast<double>(gate.checked())
            : 1.0;
        order = layerMetricNames();
        writeTrace(trace_path, g_tracer.spans, o.workload.c_str(), writer);
        if (o.recordCounts)
            gate.write();
    }
    printResult(gate, order, metrics);
    return 0;
}
