// Campaign benchmark program: runs one workload for a fixed host-time
// budget and prints one JSON object on stdout.
//
//   campaign_bench --workload case_study --seed 42 --seconds 50
//                  --trace 0 --out-dir .bench_build/perfbench/out
//                  [--workload-seed 2003]
//
// --trace 0: a short warm-up, repetitions until they fill the --seconds
// budget (at least three), then set-up samples; prints the end-to-end
// metrics, host metrics from the median repetition.  --trace 1: alternates
// untraced and traced repetitions (the program's trace recorder, metrics
// registry and sampler on), then times the layer probes; prints the
// per-layer metrics and the ledger.  Every repetition's outputs are checked
// (checks.hpp) and must reproduce the first repetition's completion
// digest.  Diagnostics go to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agents/agent_system.hpp"
#include "checks.hpp"
#include "core/experiment.hpp"
#include "pace/paper_applications.hpp"
#include "probes.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace {

namespace core = gridlb::core;
using perfbench::median;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timed repetitions per untraced run, at the least: a median of three.
constexpr std::size_t kMinReps = 3;
/// Virtual time covered by the warm-up pass.
constexpr double kWarmupSimSeconds = 60.0;

/// True when another repetition of `typical` seconds would end nearer to
/// the budget that started at `t0` than stopping now does.
bool fits(Clock::time_point t0, double typical, double budget) {
  return seconds_since(t0) + typical / 2.0 <= budget;
}

struct Options {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  std::uint64_t workload_seed = perfbench::kDefaultWorkloadSeed;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--workload-seed") o.workload_seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value != "0";
    else if (flag == "--out-dir") o.out_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

// ---- spans ---------------------------------------------------------------

/// The benchmark's own spans around every call it makes into a layer,
/// kept in memory and written out when the run ends.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& spans, std::string name) : spans_(spans) {
      index_ = spans.open(std::move(name));
    }
    ~Scope() { spans_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] double seconds() const { return spans_.seconds(index_); }

   private:
    Spans& spans_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] double seconds(std::size_t i) const {
    return (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}";
    }
    os << "\n]\n";
  }

 private:
  struct Span {
    std::string name;
    long parent = -1;
    double start_ns = 0.0;
    double end_ns = 0.0;
  };
  std::size_t open(std::string name) {
    spans_.push_back(Span{std::move(name),
                          stack_.empty() ? -1 : static_cast<long>(stack_.back()),
                          now_ns(), 0.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t i) {
    spans_[i].end_ns = now_ns();
    stack_.pop_back();
  }
  double now_ns() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ---- registry snapshots --------------------------------------------------

/// Just enough JSON to read the program's metrics-registry snapshot.
struct Json {
  /// Members in document order (a vector, since std::map does not take
  /// an incomplete value type).
  std::vector<std::pair<std::string, Json>> object;
  double number = 0.0;

  const Json* get(const std::string& key) const {
    for (const auto& [name, member] : object) {
      if (name == key) return &member;
    }
    return nullptr;
  }
  double at(const std::string& key) const {
    const Json* v = get(key);
    return v ? v->number : 0.0;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}
  Json value() {
    skip();
    Json out;
    if (peek() == '{') {
      ++i_;
      skip();
      if (peek() == '}') { ++i_; return out; }
      for (;;) {
        skip();
        const std::string key = string();
        skip();
        expect(':');
        Json member = value();
        out.object.emplace_back(key, std::move(member));
        skip();
        if (peek() == ',') { ++i_; continue; }
        expect('}');
        return out;
      }
    }
    if (peek() == '[') {  // arrays are skipped (bucket lists)
      ++i_;
      skip();
      if (peek() == ']') { ++i_; return out; }
      for (;;) {
        value();
        skip();
        if (peek() == ',') { ++i_; continue; }
        expect(']');
        return out;
      }
    }
    if (peek() == '"') { string(); return out; }
    const std::size_t start = i_;
    while (i_ < s_.size() && std::string(",}] \n\t").find(s_[i_]) == std::string::npos) ++i_;
    const std::string token = s_.substr(start, i_ - start);
    if (token != "null" && token != "true" && token != "false") {
      out.number = std::stod(token);
    }
    return out;
  }

 private:
  char peek() const {
    if (i_ >= s_.size()) throw std::runtime_error("registry JSON ends early");
    return s_[i_];
  }
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("registry JSON: expected ") + c);
    ++i_;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      if (s_[i_] == '\\') ++i_;
      out += s_[i_++];
    }
    ++i_;
    return out;
  }
  std::string s_;
  std::size_t i_ = 0;
};

Json read_registry(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read registry snapshot " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  return JsonReader(ss.str()).value();
}

// ---- repetitions ---------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double workload_gen_s = 0.0;
  double agents_build_s = 0.0;
};

/// One from-outside set-up: the grid description, generate_workload, and
/// AgentSystem construction and start, for every configuration.
SetupTimes setup_once(const Options& o) {
  SetupTimes t;
  const auto t0 = Clock::now();
  const perfbench::Workload w =
      perfbench::make_workload(o.workload, o.seed, o.workload_seed);
  const gridlb::pace::ApplicationCatalogue catalogue =
      gridlb::pace::paper_catalogue();
  std::vector<std::unique_ptr<gridlb::sim::Engine>> engines;
  std::vector<std::unique_ptr<gridlb::metrics::MetricsCollector>> collectors;
  std::vector<std::unique_ptr<gridlb::agents::AgentSystem>> systems;
  for (const auto& config : w.configs) {
    const auto g0 = Clock::now();
    const auto requests = core::generate_workload(
        config.workload, catalogue,
        static_cast<int>(config.system.resources.size()));
    t.workload_gen_s += seconds_since(g0);
    const auto b0 = Clock::now();
    engines.push_back(std::make_unique<gridlb::sim::Engine>());
    collectors.push_back(std::make_unique<gridlb::metrics::MetricsCollector>());
    systems.push_back(std::make_unique<gridlb::agents::AgentSystem>(
        *engines.back(), catalogue, config.system, collectors.back().get()));
    systems.back()->start();
    t.agents_build_s += seconds_since(b0);
    if (requests.empty()) throw std::runtime_error("empty workload");
  }
  t.total_s = seconds_since(t0);
  return t;  // tear-down is not set-up time
}

/// Moves this process to the next CPU it may run on, one per call, so a
/// run's samples come from every CPU instead of whichever one the scheduler
/// left it on: on a shared host the CPUs run at different speeds, and a
/// process left on one CPU reads that CPU's speed for its whole run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  [[nodiscard]] std::size_t count() const {
    return std::max<std::size_t>(cpus_.size(), 1);
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Rep {
  std::vector<core::ExperimentResult> results;
  double drive_s = 0.0;
};

struct Bench {
  Options options;
  perfbench::Workload workload;
  std::vector<std::vector<core::RequestSpec>> inputs;  ///< per config
  std::vector<std::uint64_t> reference;  ///< digests of the first rep
  std::uint64_t tasks_per_rep = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Spans spans;
  CpuRotation cpus;
  std::vector<SetupTimes> setups;

  /// Takes set-up samples for half a second on every CPU in turn (at
  /// least five builds each).  Called after the repetitions, once peak RSS
  /// has been read: builds torn down before or between repetitions leave
  /// the heap, and so the drive's peak RSS, larger by an amount that varies.
  void sample_setup() {
    Spans::Scope span(spans, "setup");
    for (std::size_t c = 0; c < cpus.count(); ++c) {
      cpus.next();
      const auto t0 = Clock::now();
      for (int i = 0; i < 5 || seconds_since(t0) < 0.5; ++i) {
        setups.push_back(setup_once(options));
      }
    }
  }

  [[nodiscard]] SetupTimes setup_median() const {
    std::vector<double> total, gen, build;
    for (const SetupTimes& t : setups) {
      total.push_back(t.total_s);
      gen.push_back(t.workload_gen_s);
      build.push_back(t.agents_build_s);
    }
    return SetupTimes{median(total), median(gen), median(build)};
  }

  std::string registry_path(std::size_t config) const {
    return options.out_dir + "/registry-" + workload.name + "-" +
           std::to_string(config) + ".json";
  }

  /// Runs every configuration over its first kWarmupSimSeconds of virtual
  /// time (an open-loop cutoff), so caches fill and lazy set-up finishes
  /// before timing at a tenth of a repetition's cost.  Cut-off runs leave
  /// tasks unfinished, so they are neither checked nor counted.
  void warm_up() {
    Spans::Scope span(spans, "warm_up");
    for (const auto& config : workload.configs) {
      core::ExperimentConfig cut = config;
      cut.duration = kWarmupSimSeconds;
      static_cast<void>(core::run_experiment(cut));
    }
  }

  Rep run(bool traced) {
    Rep rep;
    {
      Spans::Scope drive(spans, traced ? "drive.traced" : "drive");
      for (std::size_t c = 0; c < workload.configs.size(); ++c) {
        core::ExperimentConfig config = workload.configs[c];
        if (traced) {
          config.obs.trace = true;
          config.obs.metrics_interval = 60.0;
          config.obs.metrics_json_out = registry_path(c);
        }
        Spans::Scope one(spans, "drive.run_experiment");
        const auto t0 = Clock::now();
        rep.results.push_back(core::run_experiment(config));
        rep.drive_s += seconds_since(t0);
      }
    }
    verify(rep);
    return rep;
  }

  void verify(const Rep& rep) {
    std::vector<std::string> problems;
    for (std::size_t c = 0; c < rep.results.size(); ++c) {
      for (auto& p : perfbench::check_run(workload.configs[c], inputs[c],
                                          rep.results[c])) {
        problems.push_back(std::move(p));
      }
      const std::uint64_t digest = perfbench::result_digest(rep.results[c]);
      if (reference.size() <= c) {
        reference.push_back(digest);
      } else if (reference[c] != digest) {
        problems.push_back(workload.configs[c].name +
                           ": completion digest differs from the first "
                           "repetition");
      }
    }
    if (workload.table3_order) {
      for (auto& p : perfbench::check_table3_order(rep.results)) {
        problems.push_back(std::move(p));
      }
    }
    attempted += tasks_per_rep;
    if (!problems.empty()) {
      failed += tasks_per_rep;
      for (const auto& p : problems) std::cerr << "check failed: " << p << '\n';
    }
  }
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- output --------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    entries_.push_back("\"" + name + "\": {\"value\": " + buf +
                       ", \"unit\": \"" + unit + "\"}");
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += (i ? ", " : "") + entries_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> entries_;
};

void run_untraced(Bench& b, Metrics& m) {
  b.warm_up();
  Rep last;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (walls.size() < kMinReps ||
         fits(t0, median(walls), b.options.seconds)) {
    b.cpus.next();
    last = b.run(false);
    walls.push_back(last.drive_s);
  }
  const double peak_rss_mb = peak_rss_mib();
  b.sample_setup();
  const std::size_t g = b.workload.grid_config;
  const perfbench::GridMetrics grid = perfbench::grid_metrics(
      b.workload.configs[g], b.inputs[g], last.results[g]);
  m.add("tasks_per_s", static_cast<double>(b.tasks_per_rep) / median(walls),
        "tasks/s");
  m.add("setup_s", b.setup_median().total_s, "s");
  m.add("peak_rss_mb", peak_rss_mb, "MiB");
  m.add("grid.makespan_s", grid.makespan_s, "sim_s");
  m.add("grid.latency_p50_s", grid.latency_p50_s, "sim_s");
  m.add("grid.latency_p98_s", grid.latency_p98_s, "sim_s");
  m.add("grid.utilisation_pct", grid.utilisation_pct, "%");
  m.add("grid.deadlines_met", grid.deadlines_met, "tasks");
  std::cerr << b.workload.name << ": repetition drive times (s):";
  for (const double w : walls) std::cerr << ' ' << w;
  std::cerr << "; median " << median(walls) << '\n';
}

/// Sum of one histogram's count/sum and max over every configuration's
/// registry snapshot.
struct Hist {
  double count = 0.0, sum = 0.0, max = 0.0;
  [[nodiscard]] double mean() const { return count > 0 ? sum / count : 0.0; }
};

Hist histogram(const std::vector<Json>& registries, const std::string& name) {
  Hist h;
  for (const Json& reg : registries) {
    const Json* hs = reg.get("histograms");
    const Json* one = hs ? hs->get(name) : nullptr;
    if (!one) continue;
    h.count += one->at("count");
    h.sum += one->at("sum");
    h.max = std::max(h.max, one->at("max"));
  }
  return h;
}

double mean_of(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void run_traced(Bench& b, Metrics& m) {
  b.warm_up();
  std::vector<double> plain, traced;
  Rep rep;
  const auto t0 = Clock::now();
  while (plain.size() < 2 ||
         fits(t0, median(plain) + median(traced), b.options.seconds)) {
    b.cpus.next();
    plain.push_back(b.run(false).drive_s);
    rep = b.run(true);
    traced.push_back(rep.drive_s);
  }
  std::vector<Json> registries;
  for (std::size_t c = 0; c < b.workload.configs.size(); ++c) {
    registries.push_back(read_registry(b.registry_path(c)));
  }

  // Counts over every configuration of the workload.
  double decodes = 0, memo = 0, delta = 0, hits = 0, misses = 0, table = 0;
  double events = 0, messages = 0, bytes = 0, pulls = 0, hops = 0, local = 0;
  double migrations = 0, retries = 0, duplicates = 0, trace_events = 0;
  double straw = 0, fifo_tasks = 0;
  for (std::size_t c = 0; c < rep.results.size(); ++c) {
    const core::ExperimentResult& r = rep.results[c];
    decodes += static_cast<double>(r.ga_decodes);
    memo += static_cast<double>(r.ga_memo_hits);
    delta += static_cast<double>(r.ga_delta_evals);
    hits += static_cast<double>(r.cache.hits);
    misses += static_cast<double>(r.cache.misses);
    table += static_cast<double>(r.table_reads);
    events += static_cast<double>(r.sim_events);
    messages += static_cast<double>(r.network_messages);
    bytes += static_cast<double>(r.network_bytes);
    migrations += static_cast<double>(r.migrations);
    retries += static_cast<double>(r.message_retries);
    duplicates += static_cast<double>(r.duplicates_suppressed);
    trace_events += static_cast<double>(r.trace_events);
    straw += static_cast<double>(r.placement_decisions);
    if (b.workload.configs[c].system.policy == gridlb::sched::SchedulerPolicy::kFifo) {
      fifo_tasks += static_cast<double>(r.tasks_completed);
    }
    for (const auto& stats : r.agent_stats) {
      pulls += static_cast<double>(stats.pulls_sent);
      hops += static_cast<double>(stats.hops_accumulated);
      local += static_cast<double>(stats.dispatched_local);
    }
  }
  const Hist ga_runs = histogram(registries, "ga.generations_to_converge");
  const Hist depth = histogram(registries, "sched.queue_depth");
  const Hist staleness = histogram(registries, "act.staleness_at_use");
  const double drive_s = median(plain);
  b.sample_setup();
  const SetupTimes setup = b.setup_median();

  // The ledger divides probe costs by a drive timed on the same CPU just
  // before the probes: CPUs, and moments, differ in speed by more than the
  // shares being measured.
  b.cpus.next();
  const double ledger_drive_s = b.run(false).drive_s;

  // Probes on the grid configuration's own run.
  const std::size_t g = b.workload.grid_config;
  const gridlb::pace::ApplicationCatalogue catalogue =
      gridlb::pace::paper_catalogue();
  const perfbench::ProbeInputs in{&b.workload.configs[g], &b.inputs[g],
                                  &rep.results[g], &catalogue};
  std::vector<perfbench::QueueSnapshot> snapshots;
  std::vector<double> ga, eval, eval_from, fifo, strawv, predict, event, svc,
      req, report;
  double svc_bytes = 0.0, req_bytes = 0.0;
  {
    Spans::Scope span(b.spans, "probe");
    {
      Spans::Scope s(b.spans, "probe.queue_snapshots");
      snapshots = perfbench::queue_snapshots(in, 256);
    }
    { Spans::Scope s(b.spans, "probe.sched.ga_optimize"); ga = perfbench::probe_ga_optimize(in, snapshots); }
    { Spans::Scope s(b.spans, "probe.sched.evaluate"); eval = perfbench::probe_evaluate(in, snapshots); }
    { Spans::Scope s(b.spans, "probe.sched.evaluate_from"); eval_from = perfbench::probe_evaluate_from(in, snapshots); }
    { Spans::Scope s(b.spans, "probe.sched.fifo_place"); fifo = perfbench::probe_fifo_place(in, snapshots); }
    { Spans::Scope s(b.spans, "probe.sched.straw_select"); strawv = perfbench::probe_straw_select(in); }
    { Spans::Scope s(b.spans, "probe.pace.predict"); predict = perfbench::probe_predict(in); }
    {
      // Pending-queue size of the run: one pull timer per discovering
      // agent, one completion per running task, one delivery per message
      // in flight (time averages over the run).
      const core::ExperimentConfig& config = b.workload.configs[g];
      const core::ExperimentResult& r = rep.results[g];
      double busy = 0.0;
      for (const auto& rec : r.completions) busy += rec.end - rec.start;
      const double span_s = std::max(r.finished_at, 1.0);
      const double timers = config.system.discovery_enabled && config.system.pull_period > 0
                                ? static_cast<double>(config.system.resources.size())
                                : 0.0;
      const double pending = timers + busy / span_s +
                             static_cast<double>(r.network_messages) *
                                 config.system.network_latency / span_s;
      Spans::Scope s(b.spans, "probe.sim.event");
      event = perfbench::probe_event(static_cast<std::size_t>(std::lround(pending)));
    }
    { Spans::Scope s(b.spans, "probe.xml.service"); svc = perfbench::probe_service_xml(in, svc_bytes); }
    { Spans::Scope s(b.spans, "probe.xml.request"); req = perfbench::probe_request_xml(in, req_bytes); }
    { Spans::Scope s(b.spans, "probe.metrics.report"); report = perfbench::probe_report(in); }
  }

  m.add("sched.ga_runs", ga_runs.count, "count");
  m.add("sched.ga_decodes", decodes, "count");
  m.add("sched.ga_memo_hit_ratio", decodes + memo > 0 ? memo / (decodes + memo) : 0.0, "ratio");
  m.add("sched.ga_delta_share", decodes > 0 ? delta / decodes : 0.0, "ratio");
  m.add("sched.queue_depth_mean", depth.mean(), "tasks");
  m.add("sched.queue_depth_max", depth.max, "tasks");
  m.add("sched.generations_to_converge_mean", ga_runs.mean(), "generations");
  m.add("sched.ga_optimize_us", median(ga) * 1e-3, "us");
  m.add("sched.evaluate_ns", median(eval), "ns");
  m.add("sched.evaluate_from_ns", median(eval_from), "ns");
  m.add("sched.fifo_place_us", median(fifo) * 1e-3, "us");
  m.add("sched.straw_select_ns", median(strawv), "ns");
  const double cache_lookups = hits + misses - table;
  m.add("pace.cache_hit_ratio", cache_lookups > 0 ? (hits - table) / cache_lookups : 0.0, "ratio");
  m.add("pace.cache_misses", misses, "count");
  m.add("pace.table_reads", table, "count");
  m.add("pace.predict_ns", median(predict), "ns");
  m.add("sim.events", events, "count");
  m.add("sim.events_per_s", events / drive_s, "events/s");
  m.add("sim.event_ns", median(event), "ns");
  m.add("net.messages", messages, "count");
  m.add("net.bytes", bytes, "bytes");
  m.add("xml.service_roundtrip_ns", median(svc), "ns");
  m.add("xml.request_roundtrip_ns", median(req), "ns");
  m.add("agents.build_s", setup.agents_build_s, "s");
  m.add("agents.pulls_sent", pulls, "count");
  m.add("agents.mean_hops", local > 0 ? hops / local : 0.0, "hops");
  m.add("agents.migrations", migrations, "count");
  m.add("agents.retries", retries, "count");
  m.add("agents.duplicates_suppressed", duplicates, "count");
  m.add("agents.act_staleness_mean_s", staleness.mean(), "sim_s");
  m.add("core.workload_gen_s", setup.workload_gen_s, "s");
  m.add("core.drive_s", drive_s, "s");
  m.add("metrics.report_ms", median(report) * 1e-6, "ms");
  m.add("obs.overhead_pct", 100.0 * (median(traced) - drive_s) / drive_s, "%");
  m.add("obs.trace_events", trace_events, "count");

  // Ledger: probe cost × the program's count ÷ untraced drive time.  Probe
  // means (not medians) price the counts, so skewed costs add up right.
  const double drive_ns = ledger_drive_s * 1e9;
  const double sched_ns = mean_of(ga) * ga_runs.count +
                          mean_of(fifo) * fifo_tasks +
                          mean_of(strawv) * straw;
  const double pace_ns = mean_of(predict) * cache_lookups;
  const double sim_ns = mean_of(event) * events;
  const double xml_ns = svc_bytes + req_bytes > 0
                            ? (median(svc) + median(req)) /
                                  (svc_bytes + req_bytes) * bytes
                            : 0.0;
  const double pct = 100.0 / drive_ns;
  m.add("ledger.sched_pct", sched_ns * pct, "%");
  m.add("ledger.pace_pct", pace_ns * pct, "%");
  m.add("ledger.sim_pct", sim_ns * pct, "%");
  m.add("ledger.xml_pct", xml_ns * pct, "%");
  m.add("ledger.unattributed_pct",
        100.0 - (sched_ns + pace_ns + sim_ns + xml_ns) * pct, "%");
  std::cerr << b.workload.name << ": " << plain.size() << " untraced and "
            << traced.size() << " traced repetitions\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Bench b;
    b.options = parse(argc, argv);
    b.workload = perfbench::make_workload(b.options.workload, b.options.seed,
                                          b.options.workload_seed);
    const gridlb::pace::ApplicationCatalogue catalogue =
        gridlb::pace::paper_catalogue();
    for (const auto& config : b.workload.configs) {
      b.inputs.push_back(core::generate_workload(
          config.workload, catalogue,
          static_cast<int>(config.system.resources.size())));
      b.tasks_per_rep += b.inputs.back().size();
    }
    Metrics m;
    if (b.options.trace) {
      run_traced(b, m);
      b.spans.write(b.options.out_dir + "/spans-" + b.workload.name + ".json");
    } else {
      run_untraced(b, m);
    }
    std::cout << "{\"correct\": " << (b.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << b.attempted
              << ", \"failed\": " << b.failed << ", \"metrics\": " << m.json()
              << "}" << std::endl;
    return b.failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << '\n';
    return 2;
  }
}
