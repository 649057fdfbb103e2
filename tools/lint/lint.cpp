#include "lint.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>
#include <tuple>

namespace wearlock::lint {
namespace fs = std::filesystem;

namespace {

/// True when `comment` carries `marker(...ids...)` with `rule` among
/// the comma-separated ids.
bool MarkerSuppresses(const std::string& comment, const std::string& marker,
                      const std::string& rule) {
  std::size_t pos = comment.find(marker);
  while (pos != std::string::npos) {
    const std::size_t open = pos + marker.size();
    // NOLINTNEXTLINE contains NOLINT; require '(' right after marker.
    if (open < comment.size() && comment[open] == '(') {
      const std::size_t close = comment.find(')', open);
      if (close != std::string::npos) {
        std::string ids = comment.substr(open + 1, close - open - 1);
        std::replace(ids.begin(), ids.end(), ',', ' ');
        std::istringstream split(ids);
        std::string id;
        while (split >> id) {
          if (id == rule) return true;
        }
      }
    }
    pos = comment.find(marker, pos + marker.size());
  }
  return false;
}

/// wlbench/ belongs to the benchmark, which this tree does not edit:
/// its files are read for test-only-export references and linted by no
/// other rule.
bool IsReferenceOnly(const SourceFile& file) {
  const std::string& p = file.path();
  return p.rfind("wlbench/", 0) == 0 ||
         p.find("/wlbench/") != std::string::npos;
}

bool IsSuppressed(const SourceFile& file, const Diagnostic& diag) {
  if (MarkerSuppresses(file.CommentOn(diag.line), "NOLINT", diag.rule)) {
    return true;
  }
  return diag.line > 1 && MarkerSuppresses(file.CommentOn(diag.line - 1),
                                           "NOLINTNEXTLINE", diag.rule);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Trim leading/trailing whitespace for config-file parsing.
std::string TrimWs(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string BaselineKey(const Diagnostic& diag) {
  // Normalise to a repo-relative path: strip everything before the
  // first src/ | tests/ | bench/ | tools/ component, so a baseline
  // written from the repo root also matches absolute-path invocations
  // (the ctest gate passes ${CMAKE_SOURCE_DIR}/... paths).
  static constexpr const char* kRoots[] = {"src/", "tests/", "bench/",
                                           "tools/", "examples/"};
  std::string file = diag.file;
  std::size_t best = std::string::npos;
  for (const char* root : kRoots) {
    if (file.rfind(root, 0) == 0) {
      best = 0;
      break;
    }
    const std::size_t pos = file.find(std::string("/") + root);
    if (pos != std::string::npos && (best == std::string::npos ||
                                     pos + 1 < best)) {
      best = pos + 1;
    }
  }
  if (best != std::string::npos && best > 0) file = file.substr(best);
  return file + ":" + std::to_string(diag.line) + ": " + diag.rule;
}

bool LoadBaseline(const std::string& path, std::set<std::string>* out,
                  std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot read baseline file: " + path;
    return false;
  }
  std::string line;
  while (std::getline(is, line)) {
    line = TrimWs(line);
    if (line.empty() || line[0] == '#') continue;
    out->insert(line);
  }
  return true;
}

bool LoadSlotManifest(const std::string& path, SlotManifest* out,
                      std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot read slot manifest: " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    line = TrimWs(line);
    if (line.empty() || line[0] == '#') continue;
    // "CSlot::kFftScratch: AnalyticSignal, OtherOwner" - split on the
    // colon AFTER the slot's "::" qualifier.
    const std::size_t qual = line.find("::");
    const std::size_t colon =
        line.find(':', qual == std::string::npos ? 0 : qual + 2);
    if (colon == std::string::npos) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) +
                 ": expected 'Slot::kName: Owner[, Owner...]'";
      }
      return false;
    }
    const std::string slot = TrimWs(line.substr(0, colon));
    std::string owners = line.substr(colon + 1);
    std::replace(owners.begin(), owners.end(), ',', ' ');
    std::istringstream split(owners);
    std::string owner;
    std::set<std::string>& entry = (*out)[slot];
    while (split >> owner) entry.insert(owner);
    if (entry.empty()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) + ": no owner for " +
                 slot;
      }
      return false;
    }
  }
  return true;
}

LintResult RunLint(const std::vector<SourceFile>& files,
                   const LintOptions& options) {
  LintResult result;
  result.files_scanned = files.size();

  // Per-file rules fan out over a small thread pool; each file writes
  // its own slot, so the merged order below is thread-count invariant
  // (and the final sort makes even that irrelevant).
  std::vector<std::vector<Diagnostic>> per_file(files.size());
  auto analyze_one = [&](std::size_t idx) {
    const SourceFile& f = files[idx];
    if (IsReferenceOnly(f)) return;
    std::vector<Diagnostic>* out = &per_file[idx];
    CheckDeterminism(f, out);
    CheckBannedApi(f, out);
    CheckHeaderHygiene(f, out);
    CheckSharedState(f, out);
    CheckHotPathAlloc(f, out);
    CheckGuardedBy(f, out);
    CheckModeledTime(f, out);
    if (!options.slot_manifest.empty()) {
      CheckSlotOwnership(f, options.slot_manifest, out);
    }
    CheckDiscardedOutcome(f, out);
  };
  const std::size_t workers = std::min<std::size_t>(
      files.size(), static_cast<std::size_t>(std::max(options.threads, 1)));
  if (workers <= 1) {
    for (std::size_t i = 0; i < files.size(); ++i) analyze_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < files.size();
             i = next.fetch_add(1)) {
          analyze_one(i);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  std::vector<Diagnostic> raw;
  for (std::vector<Diagnostic>& batch : per_file) {
    raw.insert(raw.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  CheckLayerDag(files, &raw);
  CheckTestOnlyExport(files, &raw);

  // Suppression needs the owning SourceFile back; index by path.
  std::set<std::string> used_baseline;
  for (const Diagnostic& d : raw) {
    const SourceFile* owner = nullptr;
    for (const SourceFile& f : files) {
      if (f.path() == d.file) {
        owner = &f;
        break;
      }
    }
    if (owner != nullptr && IsSuppressed(*owner, d)) {
      ++result.suppressed;
      continue;
    }
    const std::string key = BaselineKey(d);
    if (options.baseline.count(key) != 0) {
      ++result.baselined;
      used_baseline.insert(key);
      continue;
    }
    result.diagnostics.push_back(d);
  }
  for (const std::string& entry : options.baseline) {
    if (used_baseline.count(entry) == 0) {
      result.stale_baseline.push_back(entry);
    }
  }
  std::sort(result.stale_baseline.begin(), result.stale_baseline.end());

  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return result;
}

bool CollectPaths(const std::vector<std::string>& inputs,
                  std::vector<std::string>* out, std::string* error) {
  for (const std::string& input : inputs) {
    fs::path p(input);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".cpp" || ext == ".h") {
          out->push_back(entry.path().lexically_normal().string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      out->push_back(p.lexically_normal().string());
    } else {
      if (error != nullptr) *error = "no such file or directory: " + input;
      return false;
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

bool LoadFiles(const std::vector<std::string>& paths,
               std::vector<SourceFile>* out, std::string* error) {
  for (const std::string& path : paths) {
    SourceFile f;
    if (!SourceFile::Load(path, &f, error)) return false;
    out->push_back(std::move(f));
  }
  return true;
}

void WriteText(const LintResult& result, std::ostream& os) {
  for (const Diagnostic& d : result.diagnostics) {
    os << d.file << ":" << d.line << ": " << d.rule << ": " << d.message
       << "\n";
  }
  os << "wearlock-lint: " << result.diagnostics.size() << " finding"
     << (result.diagnostics.size() == 1 ? "" : "s") << " in "
     << result.files_scanned << " files (" << result.suppressed
     << " suppressed, " << result.baselined << " baselined)\n";
  for (const std::string& stale : result.stale_baseline) {
    os << "wearlock-lint: stale baseline entry (fixed or moved): " << stale
       << "\n";
  }
}

void WriteJson(const LintResult& result, std::ostream& os) {
  os << "{\"files_scanned\":" << result.files_scanned
     << ",\"suppressed\":" << result.suppressed
     << ",\"baselined\":" << result.baselined << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    os << (i ? "," : "") << "{\"file\":\"" << JsonEscape(d.file)
       << "\",\"line\":" << d.line << ",\"rule\":\"" << JsonEscape(d.rule)
       << "\",\"message\":\"" << JsonEscape(d.message) << "\"}";
  }
  os << "]}\n";
}

void WriteSarif(const LintResult& result, std::ostream& os) {
  os << "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/"
        "sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"wearlock-lint\",\"informationUri\":"
        "\"docs/static-analysis.md\",\"rules\":[";
  const std::vector<RuleInfo>& rules = AllRules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    os << (i ? "," : "") << "{\"id\":\"" << JsonEscape(rules[i].id)
       << "\",\"shortDescription\":{\"text\":\""
       << JsonEscape(rules[i].summary) << "\"}}";
  }
  os << "]}},\"results\":[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    os << (i ? "," : "") << "{\"ruleId\":\"" << JsonEscape(d.rule)
       << "\",\"level\":\"error\",\"message\":{\"text\":\""
       << JsonEscape(d.message)
       << "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
          "{\"uri\":\""
       << JsonEscape(d.file) << "\"},\"region\":{\"startLine\":" << d.line
       << "}}}]}";
  }
  os << "]}]}\n";
}

void WriteBaseline(const LintResult& result, std::ostream& os) {
  os << "# wearlock-lint baseline: pre-existing findings absorbed when the\n"
        "# gate grew beyond src/. Format: <repo-relative-file>:<line>: "
        "<rule>.\n"
        "# Regenerate with --update-baseline; shrink it, never grow it.\n";
  std::vector<std::string> keys;
  keys.reserve(result.diagnostics.size());
  for (const Diagnostic& d : result.diagnostics) {
    keys.push_back(BaselineKey(d));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const std::string& k : keys) os << k << "\n";
}

std::string HeaderTuName(const std::string& rel_path) {
  std::string mangled = rel_path;
  std::replace(mangled.begin(), mangled.end(), '/', '_');
  std::replace(mangled.begin(), mangled.end(), '.', '_');
  return "hdr_" + mangled + ".cpp";
}

bool GenerateHeaderTus(const std::string& src_dir, const std::string& out_dir,
                       std::string* error) {
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + out_dir;
    return false;
  }
  std::vector<std::string> headers;
  for (const auto& entry : fs::recursive_directory_iterator(src_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".h") {
      headers.push_back(
          fs::relative(entry.path(), src_dir, ec).generic_string());
    }
  }
  std::sort(headers.begin(), headers.end());
  for (const std::string& rel : headers) {
    std::ostringstream tu;
    tu << "// Generated by wearlock-lint --gen-header-tus; do not edit.\n"
       << "// Compiling this TU proves \"" << rel << "\" is\n"
       << "// self-contained; the second include proves its guard holds.\n"
       << "#include \"" << rel << "\"\n"
       << "#include \"" << rel << "\"\n";
    const fs::path out_path = fs::path(out_dir) / HeaderTuName(rel);
    // Rewrite only on change so ninja/make don't rebuild every TU.
    {
      std::ifstream existing(out_path);
      if (existing) {
        std::ostringstream current;
        current << existing.rdbuf();
        if (current.str() == tu.str()) continue;
      }
    }
    std::ofstream os(out_path);
    if (!os) {
      if (error != nullptr) *error = "cannot write " + out_path.string();
      return false;
    }
    os << tu.str();
  }
  return true;
}

}  // namespace wearlock::lint
