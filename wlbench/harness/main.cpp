// wlbench_harness: runs one benchmark workload and prints its raw result
// as one JSON line. Launched by wlbench/run.py, which sets the
// environment (WEARLOCK_FIXED_HOST_MS) and computes the metrics.
//
//   wlbench_harness --workload fleet_clean --seed 7 --seconds 10
//                  --trace 1 --trace-out spans.json
#include <sys/resource.h>

#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "dsp/fft_plan.h"
#include "dsp/workspace.h"
#include "harness.h"
#include "obs/json.h"

namespace wlbench {

WorkCounters WorkCounters::Now() {
  return {wearlock::dsp::PlanCache::Shared().hits(),
          wearlock::dsp::PlanCache::Shared().misses(),
          wearlock::dsp::Workspace::TotalGrowths()};
}

WorkCounters WorkCounters::operator-(const WorkCounters& base) const {
  return {plan_hits - base.plan_hits, plan_misses - base.plan_misses,
          growths - base.growths};
}

std::string Digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::ostringstream& JsonObject::Key(const std::string& key) {
  if (!first_) body_ << ",";
  first_ = false;
  body_ << "\"" << wearlock::obs::JsonEscape(key) << "\":";
  return body_;
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key) << wearlock::obs::JsonNumber(v);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, std::uint64_t v) {
  Key(key) << v;
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key) << (v ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key) << "\"" << wearlock::obs::JsonEscape(v) << "\"";
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (const double x : v) items.push_back(wearlock::obs::JsonNumber(x));
  Key(key) << JsonArray(items);
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key) << json;
  return *this;
}

JsonObject& JsonObject::Counters(const std::string& key,
                                 const WorkCounters& c) {
  return Raw(key, JsonObject()
                      .Int("plan_hits", c.plan_hits)
                      .Int("plan_misses", c.plan_misses)
                      .Int("growths", c.growths)
                      .str());
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

void AddNestedSync(const wearlock::obs::MetricsRegistry& registry,
                   std::size_t parent, SpanLog* log) {
  const std::vector<double> sync = registry.SeriesValues("modem.sync.host_ms");
  const double start = (*log)[parent].start_ms;
  log->Add("modem.sync", start, start + (sync.empty() ? 0.0 : sync.back()),
           static_cast<long>(parent));
}

void WriteSpans(const Options& options, const SpanLog& log) {
  std::ofstream file(options.trace_out);
  log.WriteJson(file);
  file << "\n";
  if (!file) {
    throw std::runtime_error("cannot write span log to " + options.trace_out);
  }
}

}  // namespace wlbench

namespace {

int Usage() {
  std::cerr << "usage: wlbench_harness --workload fleet_clean|fleet_hostile|"
               "modem_sweep --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wlbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0 ||
      (options.trace && options.trace_out.empty())) {
    return Usage();
  }
  try {
    if (options.workload == "fleet_clean" ||
        options.workload == "fleet_hostile") {
      return wlbench::RunFleet(options, std::cout);
    }
    if (options.workload == "modem_sweep") {
      return wlbench::RunSweep(options, std::cout);
    }
  } catch (const std::exception& e) {
    std::cerr << "wlbench_harness: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
