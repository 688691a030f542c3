#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <regex>
#include <sstream>

#include "tools/lint/analyzer.h"
#include "tools/lint/lexer.h"

namespace vsched {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Path classification. Rules bind to directory scopes: everything under
// these prefixes executes *inside* the simulated world, where determinism
// rules are absolute. src/base is infrastructure (logging, counters, the
// audit switch) and src/runner is the parallel harness around the simulator
// (it legitimately reads wall clocks for reports).

bool PathContains(const std::string& path, const char* fragment) {
  return path.find(fragment) != std::string::npos;
}

// Simulated-world code: wall-clock reads are forbidden here. The cluster
// control plane (src/cluster) runs entirely inside the Simulation — every
// placement, provisioning, and migration decision must replay byte-identically
// — so it is held to the same rules as the per-VM stacks it orchestrates.
bool IsSimPath(const std::string& path) {
  return PathContains(path, "src/sim") || PathContains(path, "src/guest") ||
         PathContains(path, "src/host") || PathContains(path, "src/core") ||
         PathContains(path, "src/probe") || PathContains(path, "src/workloads") ||
         PathContains(path, "src/metrics") || PathContains(path, "src/stats") ||
         PathContains(path, "src/cluster");
}

// The hot scheduler state: hash-container iteration order must never be able
// to influence event or pick order.
bool IsSchedCorePath(const std::string& path) {
  return PathContains(path, "src/sim") || PathContains(path, "src/guest") ||
         PathContains(path, "src/host") || PathContains(path, "src/cluster");
}

bool IsBasePath(const std::string& path) { return PathContains(path, "src/base"); }

bool IsSrcPath(const std::string& path) { return PathContains(path, "src/"); }

// PELT is lazily evaluated: readers use UtilAt, and only the designated
// segment/dispatch transition points may fold the signal forward. pelt.cc
// itself (the signal's implementation) is exempt by path.
bool IsPeltUpdateScope(const std::string& path) {
  return IsSrcPath(path) && !PathContains(path, "src/guest/pelt");
}

// Fault-injection hooks (DropSample/CorruptSample) are confined to the
// designated probe injection points; FaultInjector::AuditVerify checks the
// same property at runtime. src/fault is the implementation and is exempt by
// path; the designated probe call sites carry allow comments.
bool IsFaultHookScope(const std::string& path) {
  return IsSrcPath(path) && !PathContains(path, "src/fault/");
}

// Adversarial co-tenant workloads (src/adversary/) model attackers with
// knowledge of platform constants but no visibility into the victim: they
// may drive Stressors and bandwidth caps on the public host surface, never
// read probe estimates, detection state, or injector hooks.
bool IsAdversaryPath(const std::string& path) {
  return PathContains(path, "src/adversary/");
}

bool Allowed(const std::vector<std::string>& allows, const std::string& rule) {
  return std::find(allows.begin(), allows.end(), rule) != allows.end();
}

// ---------------------------------------------------------------------------
// Namespace-scope tracking for the mutable-global rule. A tiny brace
// machine: each '{' is classified as namespace-opening (the code before it
// ends in a namespace declarator) or other (function/class/init-list). A
// line starts "at namespace scope" when every open brace is a namespace.

struct ScopeState {
  std::vector<char> stack;  // 'n' = namespace, 'o' = other
  std::string pending;      // code since the last brace, for classification
  int paren_depth = 0;      // >0 at line start: inside a multi-line (...) list

  bool AtNamespaceScope() const {
    return paren_depth == 0 &&
           std::all_of(stack.begin(), stack.end(), [](char k) { return k == 'n'; });
  }

  void Feed(const std::string& code) {
    static const std::regex kNamespaceTail(R"((^|[^\w])(inline\s+)?namespace(\s+[\w:]+)?\s*$)");
    for (char c : code) {
      if (c == '(') {
        ++paren_depth;
        pending.push_back(c);
      } else if (c == ')') {
        paren_depth = std::max(0, paren_depth - 1);
        pending.push_back(c);
      } else if (c == '{') {
        bool is_ns = std::regex_search(pending, kNamespaceTail);
        stack.push_back(is_ns ? 'n' : 'o');
        pending.clear();
      } else if (c == '}') {
        if (!stack.empty()) {
          stack.pop_back();
        }
        pending.clear();
      } else if (c == ';') {
        pending.clear();
      } else {
        pending.push_back(c);
      }
    }
  }
};

bool LooksLikeMutableGlobal(const std::string& code) {
  // Cheap exclusions first: type/alias/function machinery, immutables.
  static const std::regex kExcluded(
      R"(^\s*(#|using\b|typedef\b|class\b|struct\b|enum\b|template\b|friend\b|extern\b|namespace\b|static_assert\b|\[\[))");
  if (std::regex_search(code, kExcluded)) {
    return false;
  }
  if (code.find("const") != std::string::npos) {
    return false;  // const / constexpr / constinit const — all immutable
  }
  // A definition with an initializer, e.g. "static int g_x = 0;" or
  // "thread_local Foo g_f{};". Parenthesised lines are treated as function
  // declarations unless the '(' appears after '=' (initializer call).
  static const std::regex kDecl(
      R"(^\s*((static|thread_local|inline)\s+)*[A-Za-z_][\w:<>,\*&\s]*[\s\*&][A-Za-z_]\w*\s*(=[^=].*;|\{.*\}\s*;|;)\s*$)");
  if (!std::regex_match(code, kDecl)) {
    return false;
  }
  size_t paren = code.find('(');
  size_t eq = code.find('=');
  if (paren != std::string::npos && (eq == std::string::npos || paren < eq)) {
    return false;  // function declaration
  }
  return true;
}

// ---------------------------------------------------------------------------
// Token rules.

struct TokenRule {
  const char* name;
  const char* message;
  std::regex re;
  bool (*applies)(const std::string& path);
};

const std::vector<TokenRule>& TokenRules() {
  static const std::vector<TokenRule>* rules = new std::vector<TokenRule>{
      {"wall-clock",
       "wall-clock read in simulated code: all time must come from Simulation::now()",
       std::regex(R"(\b(std::chrono::|chrono::)?(system_clock|steady_clock|high_resolution_clock)\b|\b(clock_gettime|gettimeofday|timespec_get)\s*\(|\bstd::time\s*\()"),
       &IsSimPath},
      {"libc-rand",
       "unseeded libc/global entropy source: use the simulation's seeded Rng",
       std::regex(R"(\bstd::random_device\b|\brandom_device\b|\b(std::)?(rand|srand|drand48|lrand48|mrand48)\s*\()"),
       &IsSrcPath},
      {"unordered-container",
       "hash container in scheduler-core code: iteration order is not deterministic "
       "across libstdc++ versions/ASLR; use a sorted/flat container",
       std::regex(R"(\bunordered_(map|set|multimap|multiset)\b)"), &IsSchedCorePath},
      {"unseeded-rng",
       "std random engine constructed without an explicit seed: derive one from "
       "Simulation::ForkRng() or the run's seed",
       std::regex(
           R"(\b(std::)?(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux(24|48)(_base)?|knuth_b)\s+\w+\s*(;|\{\s*\}|\(\s*\)))"),
       &IsSrcPath},
      {"raw-double-accum",
       "raw floating-point accumulation into long-lived load/vruntime state: use a "
       "compensated (Neumaier) sum or integer units",
       std::regex(R"(\b\w*(load|vruntime)\w*_\s*[+\-]=)"), &IsSimPath},
      {"pelt-eager-update",
       "direct PeltSignal::Update outside src/guest/pelt.cc: PELT is pull-based — "
       "read with UtilAt and mutate only at the designated segment/dispatch entry "
       "points (mark those with a vsched-lint allow comment)",
       std::regex(R"(\bpelt_\.\s*Update\s*\(|\bPeltSignal::Update\b)"),
       &IsPeltUpdateScope},
      {"fault-injection-point",
       "fault-injection hook outside a designated probe injection point: "
       "DropSample/CorruptSample may only be called at the registered ProbePoint "
       "sites (mark those with a vsched-lint allow comment)",
       std::regex(R"(\b(DropSample|CorruptSample)\s*\()"), &IsFaultHookScope},
      {"adversary-surface",
       "adversary workload touches estimator or injector internals: attack "
       "drivers act only through the public host surface (Stressor, bandwidth "
       "caps) — the threat model grants platform constants, not victim state",
       std::regex(
           R"(\b(Vcap|Vact|Vtop|VSched|Bvs|Ivh|Rwc|PairProbe|ConfidenceTracker|DegradationTracker|FaultInjector|DropSample|CorruptSample|CapacityOf|MedianLatency|QuarantinedMask|SetCapacityOverrides?|set_degraded|set_freeze|RebuildSchedDomains)\b)"),
       &IsAdversaryPath},
  };
  return *rules;
}

constexpr const char kMutableGlobalName[] = "mutable-global";
constexpr const char kMutableGlobalMsg[] =
    "mutable namespace-scope state outside src/base: shared mutable globals break "
    "parallel-run determinism; move it into src/base or behind a per-Simulation object";

// ---------------------------------------------------------------------------
// JSON helpers (no third-party JSON dependency — the schema is tiny).

void JsonEscape(const std::string& s, std::ostream& os) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void JsonString(const std::string& s, std::ostream& os) {
  os << '"';
  JsonEscape(s, os);
  os << '"';
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo>* rules = [] {
    auto* r = new std::vector<RuleInfo>();
    for (const TokenRule& t : TokenRules()) {
      r->push_back({t.name, t.message});
    }
    r->push_back({kMutableGlobalName, kMutableGlobalMsg});
    r->push_back({kEventLifetimeRule,
                  "event closure captures this/a raw pointer/a reference without a "
                  "checked weak_ptr liveness token: the posted event can outlive its "
                  "owner (the PR-6 use-after-free class)"});
    r->push_back({kShardIsolationRule,
                  "cluster shard-isolation violation: another host's mutable state may "
                  "only be reached through the control-plane message/event interface "
                  "(slot pointers must not cross the event boundary; placement sees "
                  "HostLoadView snapshots only)"});
    r->push_back({kShardCrossingRule,
                  "sharded-engine isolation violation: barrier-mailbox messages must "
                  "carry ids (never FleetCell/Simulation/slot pointers or references) "
                  "and per-cell scopes may not reach the engine-wide cell array; "
                  "cross-cell effects travel as mailbox messages applied at window "
                  "boundaries"});
    return r;
  }();
  return *rules;
}

std::vector<Finding> LintFile(const std::string& path, const std::string& content) {
  std::vector<Finding> findings;
  const LexResult lex = Lex(content);
  ScopeState scope;

  auto effective_allows = [&lex](int line_no) {
    // A suppression covers its own line(s) and the line directly below.
    std::vector<std::string> out;
    size_t idx = static_cast<size_t>(line_no) - 1;
    if (idx < lex.allows.size()) {
      out = lex.allows[idx];
    }
    if (idx >= 1 && idx - 1 < lex.allows.size()) {
      out.insert(out.end(), lex.allows[idx - 1].begin(), lex.allows[idx - 1].end());
    }
    return out;
  };

  for (size_t i = 0; i < lex.scrubbed.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::string& code = lex.scrubbed[i];
    const std::vector<std::string> effective = effective_allows(line_no);

    const bool at_ns_scope = scope.AtNamespaceScope();
    scope.Feed(code);

    for (const TokenRule& rule : TokenRules()) {
      if (!rule.applies(path)) {
        continue;
      }
      if (std::regex_search(code, rule.re) && !Allowed(effective, rule.name)) {
        findings.push_back({path, line_no, rule.name, rule.message, {}, {}});
      }
    }
    if (!IsBasePath(path) && IsSrcPath(path) && at_ns_scope && LooksLikeMutableGlobal(code) &&
        !Allowed(effective, kMutableGlobalName)) {
      findings.push_back({path, line_no, kMutableGlobalName, kMutableGlobalMsg, {}, {}});
    }
  }

  for (AnalysisFinding& af : Analyze(path, lex)) {
    if (Allowed(effective_allows(af.line), af.rule)) {
      continue;
    }
    Finding f;
    f.file = path;
    f.line = af.line;
    f.rule = std::move(af.rule);
    f.message = std::move(af.message);
    f.sink = std::move(af.sink);
    f.captures = std::move(af.captures);
    findings.push_back(std::move(f));
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

bool LintPath(const std::string& path, std::vector<Finding>* out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::file_status st = fs::status(path, ec);
  if (ec) {
    return false;
  }
  std::vector<std::string> files;
  if (fs::is_directory(st)) {
    for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp") {
        files.push_back(entry.path().generic_string());
      }
    }
    if (ec) {
      return false;
    }
  } else {
    files.push_back(path);
  }
  std::sort(files.begin(), files.end());  // deterministic report order
  for (const std::string& file : files) {
    std::ifstream f(file, std::ios::binary);
    if (!f) {
      return false;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    std::vector<Finding> found = LintFile(file, buf.str());
    out->insert(out->end(), found.begin(), found.end());
  }
  return true;
}

void WriteJsonReport(const std::vector<Finding>& findings, std::ostream& os) {
  os << "{\n  \"version\": 2,\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"file\": ";
    JsonString(f.file, os);
    os << ", \"line\": " << f.line << ", \"rule\": ";
    JsonString(f.rule, os);
    os << ", \"message\": ";
    JsonString(f.message, os);
    if (!f.sink.empty()) {
      os << ", \"sink\": ";
      JsonString(f.sink, os);
    }
    if (!f.captures.empty()) {
      os << ", \"captures\": [";
      for (size_t c = 0; c < f.captures.size(); ++c) {
        const Capture& cap = f.captures[c];
        os << (c == 0 ? "" : ", ") << "{\"name\": ";
        JsonString(cap.name, os);
        os << ", \"kind\": ";
        JsonString(cap.kind, os);
        if (!cap.type.empty()) {
          os << ", \"type\": ";
          JsonString(cap.type, os);
        }
        os << "}";
      }
      os << "]";
    }
    os << "}";
  }
  os << (findings.empty() ? "]" : "\n  ]") << ",\n  \"count\": " << findings.size()
     << "\n}\n";
}

void WriteGithubAnnotations(const std::vector<Finding>& findings, std::ostream& os) {
  for (const Finding& f : findings) {
    // Workflow-command sanitization: the message must stay on one line and
    // %, \r, \n are escaped per the Actions toolkit rules.
    std::string msg = "[" + f.rule + "] " + f.message;
    std::string esc;
    esc.reserve(msg.size());
    for (char c : msg) {
      if (c == '%') {
        esc += "%25";
      } else if (c == '\r') {
        esc += "%0D";
      } else if (c == '\n') {
        esc += "%0A";
      } else {
        esc += c;
      }
    }
    os << "::error file=" << f.file << ",line=" << f.line << "::" << esc << "\n";
  }
}

}  // namespace lint
}  // namespace vsched
