// metrics_check: enforce the observability doc contract (docs/METRICS.md).
//
// The catalog in docs/METRICS.md is the authoritative list of metric and
// span names this stack may emit. This tool fails CI when code or emitted
// sidecars drift from it:
//
//   metrics_check source  <dir>... <METRICS.md>
//       Scans *.cpp/*.hpp under each <dir>, both directions:
//       - every name passed to a registry instrument call -- counter(...),
//         gauge(...), histogram(...), record_span(...), wrappers such as
//         proxy_counter(host_, "...") included: the call's first string
//         literal argument -- must be documented in the catalog;
//       - every name in a catalog table row must appear as a string
//         literal somewhere in the scanned sources (for a `<wildcard>`
//         pattern, a literal carrying its fixed head), so a row for a
//         metric the code no longer emits fails as stale.
//
//   metrics_check sidecar <file.json> <METRICS.md>
//       Validates a siphoc.metrics.v1 sidecar: required schema keys are
//       present and every series/span name is documented.
//
// Catalog format: any `backtick.quoted` token in METRICS.md counts as a
// documented name; a catalog row is a table line whose first cell is one
// such token. Dynamic names use wildcard segments in angle brackets, e.g.
// `sip.client_tx.<method>` matches sip.client_tx.INVITE. Code that builds
// a name by concatenation ("sip.client_tx." + method) is checked by
// prefix against a pattern's fixed head.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "metrics_check: cannot open %s\n",
                 path.string().c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.' || c == '<' || c == '>';
}

/// Every `token` in the markdown that looks like an identifier (letters,
/// digits, '_', '.', and <wildcard> segments) is a documented name.
std::set<std::string> parse_catalog(const std::string& markdown) {
  std::set<std::string> names;
  std::size_t i = 0;
  while ((i = markdown.find('`', i)) != std::string::npos) {
    const std::size_t end = markdown.find('`', i + 1);
    if (end == std::string::npos) break;
    const std::string token = markdown.substr(i + 1, end - i - 1);
    i = end + 1;
    if (token.empty()) continue;
    // A pattern starting with a wildcard would match every name and void
    // the contract; require a literal head (prose like `<wildcard>` in the
    // doc is thereby ignored too).
    if (token.front() == '<') continue;
    bool ok = true;
    for (const char c : token) ok = ok && name_char(c);
    if (ok) names.insert(token);
  }
  return names;
}

/// The names of the catalog's table rows: lines starting with '|' whose
/// first cell is a single `token` (header and separator rows have none).
std::vector<std::string> parse_catalog_rows(const std::string& markdown) {
  std::vector<std::string> rows;
  std::istringstream in(markdown);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') continue;
    const std::size_t cell_end = line.find('|', 1);
    if (cell_end == std::string::npos) continue;
    const std::size_t open = line.find_first_not_of(' ', 1);
    const std::size_t close = line.find_last_not_of(' ', cell_end - 1);
    if (open == std::string::npos || close <= open || line[open] != '`' ||
        line[close] != '`') {
      continue;
    }
    rows.push_back(line.substr(open + 1, close - open - 1));
  }
  return rows;
}

/// True when `name` matches `pattern`, where each <segment> in the pattern
/// matches one or more name characters (no backtracking needed: wildcards
/// are anchored by the literal text that follows them).
bool wildcard_match(const std::string& pattern, const std::string& name) {
  std::size_t pi = 0, ni = 0;
  while (pi < pattern.size()) {
    if (pattern[pi] == '<') {
      const std::size_t close = pattern.find('>', pi);
      if (close == std::string::npos) return false;  // malformed pattern
      pi = close + 1;
      // The wildcard must consume at least one character, then everything
      // up to the next literal character of the pattern.
      if (ni >= name.size()) return false;
      if (pi == pattern.size()) return true;  // trailing wildcard eats rest
      const char anchor = pattern[pi];
      std::size_t stop = name.find(anchor, ni + 1);
      if (stop == std::string::npos) return false;
      ni = stop;
    } else {
      if (ni >= name.size() || name[ni] != pattern[pi]) return false;
      ++pi;
      ++ni;
    }
  }
  return ni == name.size();
}

bool documented(const std::set<std::string>& catalog, const std::string& name,
                bool is_prefix) {
  if (!is_prefix && catalog.count(name) != 0) return true;
  for (const auto& pattern : catalog) {
    if (is_prefix) {
      // Concatenated name: the literal must be the fixed head of a
      // documented wildcard pattern (e.g. "sip.client_tx." against
      // sip.client_tx.<method>).
      const std::size_t open = pattern.find('<');
      if (open != std::string::npos && pattern.compare(0, open, name) == 0) {
        return true;
      }
    } else if (pattern.find('<') != std::string::npos &&
               wildcard_match(pattern, name)) {
      return true;
    }
  }
  return false;
}

struct Use {
  std::string name;
  bool is_prefix = false;  // literal is a concatenation head ("x." + y)
  std::string where;
};

/// One past the end of the string literal opening at text[at] (== '"'),
/// escapes and raw strings (R"delim(...)delim") included.
std::size_t literal_end(const std::string& text, std::size_t at) {
  if (at > 0 && text[at - 1] == 'R') {
    const std::size_t paren = text.find('(', at);
    if (paren == std::string::npos) return text.size();
    const std::string close = ")" + text.substr(at + 1, paren - at - 1) + "\"";
    const std::size_t end = text.find(close, paren);
    return end == std::string::npos ? text.size() : end + close.size();
  }
  std::size_t i = at + 1;
  while (i < text.size() && text[i] != '"') i += text[i] == '\\' ? 2 : 1;
  return std::min(i + 1, text.size());
}

/// `text` with comments and character literals blanked to spaces. Line
/// breaks stay, so offsets and line numbers survive; string literals stay.
std::string blank_comments(const std::string& text) {
  std::string out = text;
  const auto blank = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < out.size(); ++k) {
      if (out[k] != '\n') out[k] = ' ';
    }
  };
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '"') {
      i = literal_end(text, i);
    } else if (c == '/' && next == '/') {
      const std::size_t end = std::min(text.find('\n', i), text.size());
      blank(i, end);
      i = end;
    } else if (c == '/' && next == '*') {
      const std::size_t close = text.find("*/", i + 2);
      const std::size_t end =
          close == std::string::npos ? text.size() : close + 2;
      blank(i, end);
      i = end;
    } else if (c == '\'' &&
               (i == 0 ||
                std::isalnum(static_cast<unsigned char>(text[i - 1])) == 0)) {
      // A character literal (a quote after a digit is a digit separator).
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != '\'') j += text[j] == '\\' ? 2 : 1;
      blank(i, j + 1);
      i = j + 1;
    } else {
      ++i;
    }
  }
  return out;
}

/// The string literal opening at code[at] (== '"'); `is_prefix` when it is
/// followed by '+' (runtime concatenation), possibly after closing
/// parentheses as in std::string("x.") + y.
Use extract_literal(const std::string& code, std::size_t at,
                    const std::string& file) {
  const std::size_t end = literal_end(code, at);
  Use use;
  use.name = code.substr(at + 1, end - at - 2);
  std::size_t after = end;
  while (after < code.size() &&
         (std::isspace(static_cast<unsigned char>(code[after])) != 0 ||
          code[after] == ')')) {
    ++after;
  }
  use.is_prefix = after < code.size() && code[after] == '+';
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(code.begin(), code.begin() + at, '\n'));
  use.where = file + ":" + std::to_string(line);
  return use;
}

/// Every string literal in comment-blanked code.
void scan_literals(const std::string& code, const std::string& file,
                   std::vector<Use>& out) {
  for (std::size_t i = code.find('"'); i != std::string::npos;
       i = code.find('"', literal_end(code, i))) {
    out.push_back(extract_literal(code, i, file));
  }
}

/// The first string literal argument of every instrument call in
/// comment-blanked code.
void scan_instrument_calls(const std::string& code, const std::string& file,
                           std::vector<Use>& out) {
  static const char* kCalls[] = {"counter(", "gauge(", "histogram(",
                                 "record_span("};
  for (const char* call : kCalls) {
    const std::string needle = call;
    std::size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      pos += needle.size();
      // Walk the argument list to its closing parenthesis; nested calls
      // (e.g. metrics() or name()) are stepped over.
      int depth = 1;
      std::size_t i = pos;
      while (i < code.size() && depth > 0) {
        if (code[i] == '"') {
          if (depth == 1) break;
          i = literal_end(code, i);
          continue;
        }
        if (code[i] == '(') ++depth;
        if (code[i] == ')') --depth;
        ++i;
      }
      if (i >= code.size() || code[i] != '"') continue;
      Use use = extract_literal(code, i, file);
      // Only registry series names: skip helper definitions whose literal
      // is a component label or unrelated string (names carry a dot, spans
      // an underscore).
      if (use.name.find('.') == std::string::npos &&
          use.name.find('_') == std::string::npos) {
        continue;
      }
      out.push_back(std::move(use));
    }
  }
}

/// True when some literal carries catalog row `name`: the literal itself,
/// or for a `<wildcard>` pattern a literal that starts with the pattern's
/// fixed head or is a concatenation head the fixed head starts with.
bool has_literal(const std::vector<Use>& literals, const std::string& name) {
  const std::size_t open = name.find('<');
  const std::string head = name.substr(0, open);
  for (const auto& lit : literals) {
    if (open == std::string::npos) {
      if (lit.name == name) return true;
    } else if (lit.name.compare(0, head.size(), head) == 0 ||
               (lit.is_prefix && !lit.name.empty() &&
                head.compare(0, lit.name.size(), lit.name) == 0)) {
      return true;
    }
  }
  return false;
}

int run_source_mode(const std::vector<fs::path>& dirs,
                    const fs::path& doc_path) {
  const std::string markdown = read_file(doc_path);
  const auto catalog = parse_catalog(markdown);
  if (catalog.empty()) {
    std::fprintf(stderr, "metrics_check: no names parsed from %s\n",
                 doc_path.string().c_str());
    return 2;
  }
  std::vector<Use> uses;
  std::vector<Use> literals;
  for (const auto& dir : dirs) {
    if (!fs::is_directory(dir)) {
      std::fprintf(stderr, "metrics_check: %s is not a directory\n",
                   dir.string().c_str());
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      const std::string code = blank_comments(read_file(entry.path()));
      scan_instrument_calls(code, entry.path().string(), uses);
      scan_literals(code, entry.path().string(), literals);
    }
  }
  int bad = 0;
  for (const auto& use : uses) {
    if (!documented(catalog, use.name, use.is_prefix)) {
      std::fprintf(stderr, "UNDOCUMENTED metric name \"%s%s\" at %s\n",
                   use.name.c_str(), use.is_prefix ? "<...>" : "",
                   use.where.c_str());
      ++bad;
    }
  }
  const auto rows = parse_catalog_rows(markdown);
  for (const auto& row : rows) {
    if (!has_literal(literals, row)) {
      std::fprintf(stderr,
                   "STALE catalog row `%s`: no string literal in the "
                   "scanned sources emits it\n",
                   row.c_str());
      ++bad;
    }
  }
  std::printf(
      "metrics_check source: %zu instrument calls, %zu catalog rows, %d "
      "problems\n",
      uses.size(), rows.size(), bad);
  return bad == 0 ? 0 : 1;
}

/// Collects the value of every "name": "..." pair in the sidecar. The
/// siphoc.metrics.v1 schema only uses the "name" key for series and span
/// names, so no structural JSON parse is needed.
std::vector<std::string> sidecar_names(const std::string& json) {
  std::vector<std::string> names;
  const std::string needle = "\"name\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    while (pos < json.size() &&
           std::isspace(static_cast<unsigned char>(json[pos])) != 0) {
      ++pos;
    }
    if (pos >= json.size() || json[pos] != '"') continue;
    const std::size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    names.push_back(json.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  return names;
}

int run_sidecar_mode(const fs::path& json_path, const fs::path& doc_path) {
  const std::string json = read_file(json_path);
  const auto catalog = parse_catalog(read_file(doc_path));

  int bad = 0;
  static const char* kRequiredKeys[] = {
      "\"schema\": \"siphoc.metrics.v1\"", "\"emitted_at_us\"",
      "\"counters\"",                      "\"gauges\"",
      "\"histograms\"",                    "\"spans\"",
      "\"spans_dropped\""};
  for (const char* key : kRequiredKeys) {
    if (json.find(key) == std::string::npos) {
      std::fprintf(stderr, "sidecar missing required key %s\n", key);
      ++bad;
    }
  }

  // Merged-parallel sidecars (bench --threads / scenario_runner --sweep)
  // additionally carry "merged_cells": the number of per-simulation
  // registries folded into the export. Optional, but when present it must
  // be a positive integer.
  const std::string merged_key = "\"merged_cells\":";
  if (const std::size_t at = json.find(merged_key); at != std::string::npos) {
    std::size_t pos = at + merged_key.size();
    while (pos < json.size() &&
           std::isspace(static_cast<unsigned char>(json[pos])) != 0) {
      ++pos;
    }
    std::size_t digits = 0;
    while (pos + digits < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[pos + digits])) != 0) {
      ++digits;
    }
    if (digits == 0 || (digits == 1 && json[pos] == '0')) {
      std::fprintf(stderr,
                   "sidecar \"merged_cells\" must be a positive integer\n");
      ++bad;
    }
  }

  const auto names = sidecar_names(json);
  if (names.empty()) {
    std::fprintf(stderr, "sidecar contains no named series at all\n");
    ++bad;
  }
  std::set<std::string> reported;
  for (const auto& name : names) {
    if (!documented(catalog, name, /*is_prefix=*/false) &&
        reported.insert(name).second) {
      std::fprintf(stderr, "UNDOCUMENTED sidecar name \"%s\"\n",
                   name.c_str());
      ++bad;
    }
  }
  std::printf("metrics_check sidecar: %zu names, %d problems\n", names.size(),
              bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "source" && argc >= 4) {
    return run_source_mode(std::vector<fs::path>(argv + 2, argv + argc - 1),
                           argv[argc - 1]);
  }
  if (mode == "sidecar" && argc == 4) return run_sidecar_mode(argv[2], argv[3]);
  std::fprintf(stderr,
               "usage: metrics_check source  <dir>...     <METRICS.md>\n"
               "       metrics_check sidecar <file.json>  <METRICS.md>\n");
  return 2;
}
