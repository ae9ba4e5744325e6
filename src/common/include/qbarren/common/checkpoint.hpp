// Versioned on-disk checkpoint store for long experiment runs.
//
// A Checkpoint maps cell keys (one per unit of resumable work, e.g.
// "q=8/init=random") to payloads of named scalars and double vectors. The
// store is keyed by an *options fingerprint*: a canonical string derived
// from every option that shaped the run. Loading a checkpoint whose
// fingerprint differs from the current run's options throws, so a stale
// file can never silently contaminate fresh results.
//
// The file format is line-based text, version-tagged, and stores doubles
// as C hexfloats ("%a"), which round-trip bit-for-bit — a resumed run
// reproduces an uninterrupted run exactly. Every flush() rewrites the file
// through write_file_atomic, so a kill at any instant leaves either the
// previous complete checkpoint or the new one, never a torn file.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qbarren/common/error.hpp"

namespace qbarren {

/// Thrown on checkpoint version/fingerprint mismatch or file corruption.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

/// Payload of one completed unit of work. Names are identifiers
/// ([A-Za-z0-9_] only); values round-trip exactly.
struct CheckpointCell {
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> vectors;

  /// Typed lookups that throw CheckpointError (naming the missing field)
  /// instead of std::out_of_range, so a truncated or hand-edited cell is
  /// reported as checkpoint corruption.
  [[nodiscard]] double scalar(const std::string& name) const;
  [[nodiscard]] const std::vector<double>& vector(
      const std::string& name) const;
};

/// Outcome of Checkpoint::open_salvaging on a store that failed strict
/// loading: what was kept, where the damaged bytes went, and why.
struct CheckpointSalvage {
  /// True when the on-disk file was damaged and moved aside.
  bool quarantined = false;
  /// Destination of the damaged file ("<path>.corrupt"); set whenever a
  /// quarantine was attempted, even if the rename itself failed.
  std::string quarantine_path;
  /// The strict loader's error (empty when the store loaded cleanly).
  std::string reason;
  /// Complete cells recovered from the damaged file (0 when the header or
  /// fingerprint was unusable — foreign data is never salvaged).
  std::size_t salvaged_cells = 0;
};

class Checkpoint {
 public:
  static constexpr int kFormatVersion = 1;

  /// A fresh, empty store. Nothing touches the filesystem until flush().
  /// `path` may name a non-existent file; `fingerprint` must be a single
  /// line. An empty path makes flush() a no-op (in-memory store).
  Checkpoint(std::string path, std::string fingerprint);

  /// Parses the checkpoint at `path`. Throws CheckpointError when the file
  /// is missing, malformed, has a different format version, or carries a
  /// fingerprint other than `expected_fingerprint` (a stale checkpoint
  /// from a run with different options).
  [[nodiscard]] static Checkpoint load(const std::string& path,
                                       const std::string& expected_fingerprint);

  /// `resume` ? load-if-present (validating the fingerprint) : fresh store.
  [[nodiscard]] static Checkpoint open(const std::string& path,
                                       const std::string& fingerprint,
                                       bool resume);

  /// Torn-write-tolerant open: load-if-present, but a file that fails the
  /// strict loader (truncated mid-cell by a death during flush, corrupt
  /// bytes, stale fingerprint) is *quarantined* — renamed to
  /// "<path>.corrupt" — instead of aborting the run, and every complete
  /// cell parsed before the damage is kept (the damaged cell and anything
  /// after it are simply recomputed). A missing file yields a fresh store
  /// with no quarantine. `salvage`, when non-null, receives what happened.
  /// This is the open mode for long-lived stores (the serve result cache)
  /// where "refuse to start" is worse than "recompute a few cells".
  [[nodiscard]] static Checkpoint open_salvaging(
      const std::string& path, const std::string& fingerprint,
      CheckpointSalvage* salvage = nullptr);

  [[nodiscard]] bool has_cell(const std::string& key) const;

  /// nullptr when absent.
  [[nodiscard]] const CheckpointCell* find_cell(const std::string& key) const;

  /// Inserts or replaces a cell. Keys must be non-empty single lines.
  void put_cell(const std::string& key, CheckpointCell cell);

  /// put_cell + flush as one atomic operation under the store's writer
  /// mutex — the entry point for concurrent producers (executor worker
  /// threads). Interleaved record_cell calls from any number of threads
  /// leave the store uncorrupted, and every flush writes a complete,
  /// loadable file.
  void record_cell(const std::string& key, CheckpointCell cell);

  /// Atomically rewrites the backing file with the current contents.
  /// No-op for an in-memory store (empty path).
  void flush() const;

  [[nodiscard]] std::size_t cell_count() const noexcept;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& fingerprint() const noexcept {
    return fingerprint_;
  }

  /// The exact byte content flush() writes (exposed for tests).
  [[nodiscard]] std::string serialize() const;

 private:
  void put_cell_locked(const std::string& key, CheckpointCell cell);
  [[nodiscard]] std::string serialize_locked() const;

  std::string path_;
  std::string fingerprint_;
  std::map<std::string, CheckpointCell> cells_;  // ordered => deterministic
  // Writer mutex serializing record_cell/put_cell/flush from concurrent
  // producers. Behind unique_ptr because load()/open() return by value
  // (std::mutex is immovable); never null after construction.
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

/// One structural problem found by scan_checkpoint_file, anchored to a
/// 1-based line number (0 = the file as a whole).
struct CheckpointScanIssue {
  std::size_t line = 0;
  std::string message;
};

/// Lenient structural read of a checkpoint/result-cache file — the
/// introspection hook behind `qbarren fsck` (analysis/store_audit.hpp).
/// Where the strict loader throws on the first problem and open_salvaging
/// silently quarantines, the scanner parses the whole file with the same
/// grammar (header, fingerprint line, cell/endcell framing, hexfloat
/// payload lines, end marker) and records *every* structural problem with
/// its line number, plus the record layout in file order (duplicates
/// preserved — the strict loader's map would silently shadow them).
struct CheckpointScan {
  /// One `cell <key>` record, in file order.
  struct Record {
    std::string key;
    std::size_t line = 0;   ///< 1-based line of the "cell" tag
    bool complete = false;  ///< endcell reached with every payload line intact
  };

  bool exists = false;          ///< file could be opened
  bool header_ok = false;       ///< first line is "qbarren-checkpoint <v>"
  int version = -1;             ///< parsed format version (-1 = unparsed)
  bool version_ok = false;      ///< version == kFormatVersion
  bool has_fingerprint = false; ///< second line is "fingerprint <fp>"
  std::string fingerprint;      ///< stored fingerprint (when present)
  std::vector<Record> records;  ///< every cell record, duplicates included
  bool saw_end = false;         ///< "end <n>" marker reached
  std::size_t declared_cells = 0;  ///< <n> from the end marker
  std::vector<CheckpointScanIssue> issues;
};

/// Scans the file at `path`. Never throws on file content; a missing file
/// yields exists = false and one issue.
[[nodiscard]] CheckpointScan scan_checkpoint_file(const std::string& path);

/// Serializes one cell's payload as the checkpoint format's body lines
/// ("scalar <name> <hex>\n" / "vector <name> <n> <hex...>\n", no
/// cell/endcell framing). Doubles are hexfloats, so parse_cell_payload
/// reproduces the cell bit-for-bit — this is the wire format serve
/// workers use to return results without any precision loss.
[[nodiscard]] std::string serialize_cell_payload(const CheckpointCell& cell);

/// Inverse of serialize_cell_payload; throws CheckpointError on any
/// malformed line.
[[nodiscard]] CheckpointCell parse_cell_payload(const std::string& text);

}  // namespace qbarren
