#include "qbarren/common/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "qbarren/common/run.hpp"

namespace qbarren {

namespace {

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw CheckpointError("checkpoint " + path + ": " + why);
}

bool is_identifier(const std::string& s) {
  if (s.empty()) return false;
  for (const char ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_';
    if (!ok) return false;
  }
  return true;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);  // hexfloat: exact round trip
  out += buf;
}

/// Parses one double token with strtod (iostream hexfloat extraction is
/// unreliable); `where` names the field for error messages.
double parse_double(std::istringstream& line, const std::string& path,
                    const std::string& where) {
  std::string token;
  if (!(line >> token)) {
    corrupt(path, "missing value in " + where);
  }
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    corrupt(path, "bad numeric token '" + token + "' in " + where);
  }
  return v;
}

/// Parses one "scalar ..." / "vector ..." body line into `cell`. Returns
/// false when `tag` is not a payload tag (caller decides what that
/// means); throws CheckpointError (via corrupt) on a malformed payload
/// line.
bool parse_payload_line(const std::string& tag, std::istringstream& fields,
                        const std::string& path, CheckpointCell& cell) {
  if (tag == "scalar") {
    std::string name;
    if (!(fields >> name) || !is_identifier(name)) {
      corrupt(path, "bad scalar name");
    }
    cell.scalars[name] = parse_double(fields, path, "scalar " + name);
    return true;
  }
  if (tag == "vector") {
    std::string name;
    std::size_t count = 0;
    if (!(fields >> name >> count) || !is_identifier(name)) {
      corrupt(path, "bad vector header");
    }
    std::vector<double>& values = cell.vectors[name];
    values.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      values[i] = parse_double(fields, path, "vector " + name);
    }
    return true;
  }
  return false;
}

void append_cell_payload(std::string& out, const CheckpointCell& cell) {
  for (const auto& [name, value] : cell.scalars) {
    out += "scalar " + name + " ";
    append_double(out, value);
    out += '\n';
  }
  for (const auto& [name, values] : cell.vectors) {
    out += "vector " + name + " " + std::to_string(values.size());
    for (const double v : values) {
      out += ' ';
      append_double(out, v);
    }
    out += '\n';
  }
}

}  // namespace

double CheckpointCell::scalar(const std::string& name) const {
  const auto it = scalars.find(name);
  if (it == scalars.end()) {
    throw CheckpointError("checkpoint cell: missing scalar '" + name + "'");
  }
  return it->second;
}

const std::vector<double>& CheckpointCell::vector(
    const std::string& name) const {
  const auto it = vectors.find(name);
  if (it == vectors.end()) {
    throw CheckpointError("checkpoint cell: missing vector '" + name + "'");
  }
  return it->second;
}

Checkpoint::Checkpoint(std::string path, std::string fingerprint)
    : path_(std::move(path)), fingerprint_(std::move(fingerprint)) {
  QBARREN_REQUIRE(!fingerprint_.empty(), "Checkpoint: empty fingerprint");
  QBARREN_REQUIRE(fingerprint_.find('\n') == std::string::npos,
                  "Checkpoint: fingerprint must be a single line");
}

Checkpoint Checkpoint::load(const std::string& path,
                            const std::string& expected_fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("checkpoint " + path + ": cannot open");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::istringstream stream(buffer.str());

  std::string line;
  if (!std::getline(stream, line)) {
    corrupt(path, "empty file");
  }
  {
    std::istringstream header(line);
    std::string magic;
    int version = -1;
    if (!(header >> magic >> version) || magic != "qbarren-checkpoint") {
      corrupt(path, "not a qbarren checkpoint");
    }
    if (version != kFormatVersion) {
      corrupt(path, "format version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kFormatVersion) + ")");
    }
  }
  if (!std::getline(stream, line) || line.rfind("fingerprint ", 0) != 0) {
    corrupt(path, "missing fingerprint line");
  }
  const std::string stored = line.substr(std::string("fingerprint ").size());
  if (stored != expected_fingerprint) {
    throw CheckpointError(
        "checkpoint " + path +
        ": stale — it was written by a run with different options\n"
        "  stored:   " + stored + "\n  expected: " + expected_fingerprint);
  }

  Checkpoint ckpt(path, stored);
  std::string current_key;
  bool in_cell = false;
  CheckpointCell current;
  bool saw_end = false;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "cell") {
      if (in_cell) corrupt(path, "cell without endcell");
      std::string rest;
      std::getline(fields, rest);
      if (rest.size() < 2 || rest[0] != ' ') corrupt(path, "bad cell line");
      current_key = rest.substr(1);
      current = CheckpointCell{};
      in_cell = true;
    } else if (tag == "scalar" || tag == "vector") {
      if (!in_cell) corrupt(path, tag + " outside cell");
      parse_payload_line(tag, fields, path, current);
    } else if (tag == "endcell") {
      if (!in_cell) corrupt(path, "endcell outside cell");
      ckpt.cells_[current_key] = std::move(current);
      current = CheckpointCell{};
      in_cell = false;
    } else if (tag == "end") {
      std::size_t count = 0;
      if (!(fields >> count) || count != ckpt.cells_.size()) {
        corrupt(path, "cell count mismatch (truncated file?)");
      }
      saw_end = true;
      break;
    } else {
      corrupt(path, "unknown line tag '" + tag + "'");
    }
  }
  if (in_cell) corrupt(path, "cell without endcell at EOF");
  if (!saw_end) corrupt(path, "missing end marker (truncated file?)");
  return ckpt;
}

Checkpoint Checkpoint::open(const std::string& path,
                            const std::string& fingerprint, bool resume) {
  if (resume && std::ifstream(path).good()) {
    return load(path, fingerprint);
  }
  return Checkpoint(path, fingerprint);
}

Checkpoint Checkpoint::open_salvaging(const std::string& path,
                                      const std::string& fingerprint,
                                      CheckpointSalvage* salvage) {
  CheckpointSalvage report;
  if (!std::ifstream(path).good()) {
    if (salvage != nullptr) *salvage = report;
    return Checkpoint(path, fingerprint);
  }
  try {
    Checkpoint loaded = load(path, fingerprint);
    if (salvage != nullptr) *salvage = report;
    return loaded;
  } catch (const CheckpointError& error) {
    report.reason = error.what();
  }

  // Tolerant reparse: keep every cell completed before the first damaged
  // line. A wrong header, version, or fingerprint keeps nothing — bytes
  // written under other options must never leak into this store.
  Checkpoint ckpt(path, fingerprint);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::istringstream stream(buffer.str());
  std::string line;
  bool header_ok = false;
  if (std::getline(stream, line)) {
    std::istringstream header(line);
    std::string magic;
    int version = -1;
    header_ok = static_cast<bool>(header >> magic >> version) &&
                magic == "qbarren-checkpoint" && version == kFormatVersion;
  }
  if (header_ok && std::getline(stream, line) &&
      line == "fingerprint " + fingerprint) {
    std::string current_key;
    CheckpointCell current;
    bool in_cell = false;
    try {
      while (std::getline(stream, line)) {
        if (line.empty()) continue;
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        if (tag == "cell") {
          if (in_cell) break;  // damaged framing; stop at last good cell
          std::string rest;
          std::getline(fields, rest);
          if (rest.size() < 2 || rest[0] != ' ') break;
          current_key = rest.substr(1);
          current = CheckpointCell{};
          in_cell = true;
        } else if (tag == "scalar" || tag == "vector") {
          if (!in_cell) break;
          parse_payload_line(tag, fields, path, current);
        } else if (tag == "endcell") {
          if (!in_cell) break;
          ckpt.cells_[current_key] = std::move(current);
          current = CheckpointCell{};
          in_cell = false;
        } else {
          break;  // "end" (count already known wrong) or unknown tag
        }
      }
    } catch (const CheckpointError&) {
      // Malformed payload line: everything before it is already kept.
    }
  }
  report.salvaged_cells = ckpt.cells_.size();

  // Move the damaged file aside so the evidence survives and the next
  // flush starts from a clean slate. A failed rename is not fatal — the
  // next flush overwrites the damaged file atomically anyway.
  report.quarantine_path = path + ".corrupt";
  report.quarantined =
      std::rename(path.c_str(), report.quarantine_path.c_str()) == 0;
  if (salvage != nullptr) *salvage = report;
  return ckpt;
}

bool Checkpoint::has_cell(const std::string& key) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return cells_.find(key) != cells_.end();
}

const CheckpointCell* Checkpoint::find_cell(const std::string& key) const {
  // The returned pointer stays valid under concurrent record_cell of
  // *other* keys (std::map never invalidates on insert); callers restore
  // cells before spawning producers, so no lifetime hazard in practice.
  std::lock_guard<std::mutex> lock(*mutex_);
  const auto it = cells_.find(key);
  return it == cells_.end() ? nullptr : &it->second;
}

std::size_t Checkpoint::cell_count() const noexcept {
  std::lock_guard<std::mutex> lock(*mutex_);
  return cells_.size();
}

void Checkpoint::put_cell_locked(const std::string& key,
                                 CheckpointCell cell) {
  QBARREN_REQUIRE(!key.empty() && key.find('\n') == std::string::npos,
                  "Checkpoint::put_cell: key must be a non-empty single line");
  for (const auto& [name, unused] : cell.scalars) {
    QBARREN_REQUIRE(is_identifier(name),
                    "Checkpoint::put_cell: scalar names must be identifiers");
  }
  for (const auto& [name, unused] : cell.vectors) {
    QBARREN_REQUIRE(is_identifier(name),
                    "Checkpoint::put_cell: vector names must be identifiers");
  }
  cells_[key] = std::move(cell);
}

void Checkpoint::put_cell(const std::string& key, CheckpointCell cell) {
  std::lock_guard<std::mutex> lock(*mutex_);
  put_cell_locked(key, std::move(cell));
}

void Checkpoint::record_cell(const std::string& key, CheckpointCell cell) {
  std::lock_guard<std::mutex> lock(*mutex_);
  put_cell_locked(key, std::move(cell));
  if (!path_.empty()) {
    write_file_atomic(path_, serialize_locked());
  }
}

std::string Checkpoint::serialize_locked() const {
  std::string out;
  out += "qbarren-checkpoint " + std::to_string(kFormatVersion) + "\n";
  out += "fingerprint " + fingerprint_ + "\n";
  for (const auto& [key, cell] : cells_) {
    out += "cell " + key + "\n";
    append_cell_payload(out, cell);
    out += "endcell\n";
  }
  out += "end " + std::to_string(cells_.size()) + "\n";
  return out;
}

std::string Checkpoint::serialize() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return serialize_locked();
}

void Checkpoint::flush() const {
  if (path_.empty()) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  write_file_atomic(path_, serialize_locked());
}

CheckpointScan scan_checkpoint_file(const std::string& path) {
  CheckpointScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    scan.issues.push_back({0, "cannot open file"});
    return scan;
  }
  scan.exists = true;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::istringstream stream(buffer.str());

  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(stream, line)) {
    scan.issues.push_back({0, "empty file"});
    return scan;
  }
  ++line_no;
  {
    std::istringstream header(line);
    std::string magic;
    int version = -1;
    if (!(header >> magic >> version) || magic != "qbarren-checkpoint") {
      scan.issues.push_back({line_no, "not a qbarren checkpoint"});
      return scan;  // nothing past a foreign header is trustworthy
    }
    scan.header_ok = true;
    scan.version = version;
    scan.version_ok = version == Checkpoint::kFormatVersion;
    if (!scan.version_ok) {
      scan.issues.push_back(
          {line_no, "format version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(Checkpoint::kFormatVersion) + ")"});
    }
  }
  if (!std::getline(stream, line)) {
    scan.issues.push_back({line_no, "missing fingerprint line"});
    return scan;
  }
  ++line_no;
  if (line.rfind("fingerprint ", 0) != 0) {
    scan.issues.push_back({line_no, "missing fingerprint line"});
    return scan;
  }
  scan.has_fingerprint = true;
  scan.fingerprint = line.substr(std::string("fingerprint ").size());

  // Body: the strict loader's grammar, but every violation is recorded
  // with its line number and the walk continues — fsck reports all the
  // damage in one pass instead of the first byte of it.
  bool in_cell = false;
  bool damaged = false;  // current record had a bad payload/unknown line
  std::set<std::string> complete_keys;
  const auto close_record = [&](bool complete) {
    if (!scan.records.empty()) {
      scan.records.back().complete = complete && !damaged;
      if (scan.records.back().complete) {
        complete_keys.insert(scan.records.back().key);
      }
    }
    in_cell = false;
    damaged = false;
  };
  while (std::getline(stream, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (scan.saw_end) {
      scan.issues.push_back({line_no, "trailing data after end marker"});
      break;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "cell") {
      if (in_cell) {
        scan.issues.push_back({line_no, "cell without endcell"});
        close_record(false);
      }
      std::string rest;
      std::getline(fields, rest);
      if (rest.size() < 2 || rest[0] != ' ') {
        scan.issues.push_back({line_no, "bad cell line"});
        continue;
      }
      scan.records.push_back({rest.substr(1), line_no, false});
      in_cell = true;
      damaged = false;
    } else if (tag == "scalar" || tag == "vector") {
      if (!in_cell) {
        scan.issues.push_back({line_no, tag + " outside cell"});
        continue;
      }
      try {
        CheckpointCell sink;
        parse_payload_line(tag, fields, path, sink);
      } catch (const CheckpointError& error) {
        scan.issues.push_back({line_no, error.what()});
        damaged = true;
      }
    } else if (tag == "endcell") {
      if (!in_cell) {
        scan.issues.push_back({line_no, "endcell outside cell"});
        continue;
      }
      close_record(true);
    } else if (tag == "end") {
      if (in_cell) {
        scan.issues.push_back({line_no, "end marker inside cell"});
        close_record(false);
      }
      std::size_t count = 0;
      if (!(fields >> count)) {
        scan.issues.push_back({line_no, "bad end marker"});
      } else {
        scan.declared_cells = count;
        if (count != complete_keys.size()) {
          scan.issues.push_back(
              {line_no, "cell count mismatch (truncated file?): declares " +
                            std::to_string(count) + ", file holds " +
                            std::to_string(complete_keys.size())});
        }
      }
      scan.saw_end = true;
    } else {
      scan.issues.push_back({line_no, "unknown line tag '" + tag + "'"});
      if (in_cell) damaged = true;
    }
  }
  if (in_cell) {
    scan.issues.push_back({line_no, "cell without endcell at EOF"});
    close_record(false);
  }
  if (!scan.saw_end) {
    scan.issues.push_back({line_no, "missing end marker (truncated file?)"});
  }
  return scan;
}

std::string serialize_cell_payload(const CheckpointCell& cell) {
  std::string out;
  append_cell_payload(out, cell);
  return out;
}

CheckpointCell parse_cell_payload(const std::string& text) {
  static const std::string where = "<cell payload>";
  CheckpointCell cell;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (!parse_payload_line(tag, fields, where, cell)) {
      corrupt(where, "unknown payload tag '" + tag + "'");
    }
  }
  return cell;
}

}  // namespace qbarren
