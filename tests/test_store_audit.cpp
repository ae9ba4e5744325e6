// Tests for the checkpoint store auditor (analysis/store_audit.hpp) and
// the lenient scanner behind it (scan_checkpoint_file): every corruption
// open_salvaging quarantines must surface as a QD error finding, clean
// stores must audit clean, and each QD110-QD115 rule needs a fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "qbarren/analysis/store_audit.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/serve/audit.hpp"
#include "qbarren/serve/service.hpp"

namespace qbarren {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  fs::remove(path);
  fs::remove(path + ".corrupt");
  return path;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

std::size_t count_code(const Diagnostics& diagnostics,
                       const std::string& code) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

bool has_code(const Diagnostics& diagnostics, const std::string& code) {
  return count_code(diagnostics, code) > 0;
}

/// A small well-formed store: two complete cells under fingerprint "fp".
std::string make_store(const std::string& path) {
  Checkpoint ckpt(path, "fp");
  CheckpointCell a;
  a.scalars["variance"] = 0.125;
  a.vectors["samples"] = {1.0, -2.5, 3.0};
  ckpt.put_cell("q=4/init=he", a);
  CheckpointCell b;
  b.scalars["variance"] = 0.5;
  ckpt.put_cell("q=4/init=random", b);
  ckpt.flush();
  return ckpt.serialize();
}

// --- clean stores -----------------------------------------------------------

TEST(StoreAudit, FreshlyFlushedStoreAuditsClean) {
  const std::string path = temp_path("store_clean.ckpt");
  make_store(path);

  const CheckpointScan scan = scan_checkpoint_file(path);
  EXPECT_TRUE(scan.exists && scan.header_ok && scan.version_ok &&
              scan.has_fingerprint && scan.saw_end);
  EXPECT_TRUE(scan.issues.empty());
  EXPECT_EQ(scan.fingerprint, "fp");
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_TRUE(scan.records[0].complete);
  EXPECT_TRUE(scan.records[1].complete);
  EXPECT_EQ(scan.declared_cells, 2u);

  StoreAuditOptions expectations;
  expectations.expected_fingerprint = "fp";
  expectations.expected_cells = {"q=4/init=he", "q=4/init=random"};
  EXPECT_TRUE(audit_store(path, expectations).empty());
}

// --- QD110-QD112: structural damage ----------------------------------------

TEST(StoreAudit, MissingFileIsQD110) {
  const Diagnostics diagnostics =
      audit_store(temp_path("store_missing.ckpt"));
  ASSERT_TRUE(has_code(diagnostics, "QD110"));
  EXPECT_TRUE(has_errors(diagnostics));
}

TEST(StoreAudit, ForeignMagicIsQD110) {
  const std::string path = temp_path("store_magic.ckpt");
  write_file(path, "definitely not a checkpoint\n");
  EXPECT_TRUE(has_code(audit_store(path), "QD110"));
}

TEST(StoreAudit, VersionSkewIsQD111) {
  const std::string path = temp_path("store_version.ckpt");
  write_file(path, "qbarren-checkpoint 99\nfingerprint fp\nend 0\n");
  const Diagnostics diagnostics = audit_store(path);
  EXPECT_TRUE(has_code(diagnostics, "QD111"));
  EXPECT_TRUE(has_errors(diagnostics));
}

TEST(StoreAudit, TruncationIsQD112WithLineNumbers) {
  const std::string path = temp_path("store_torn.ckpt");
  const std::string full = make_store(path);
  // Cut mid-payload: inside the first cell's vector line.
  write_file(path, full.substr(0, full.find("samples") + 10));
  const Diagnostics diagnostics = audit_store(path);
  ASSERT_TRUE(has_code(diagnostics, "QD112"));
  EXPECT_TRUE(has_errors(diagnostics));
  // Findings anchor to file:line locations.
  bool anchored = false;
  for (const Diagnostic& d : diagnostics) {
    if (d.code == "QD112" && d.location.find(path + ":") == 0) {
      anchored = true;
    }
  }
  EXPECT_TRUE(anchored);
}

TEST(StoreAudit, WrongEndCountIsQD112) {
  const std::string path = temp_path("store_count.ckpt");
  std::string text = make_store(path);
  const std::size_t at = text.find("end 2");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, "end 7");
  write_file(path, text);
  EXPECT_TRUE(has_code(audit_store(path), "QD112"));
}

TEST(StoreAudit, BadPayloadTokenIsQD112) {
  const std::string path = temp_path("store_token.ckpt");
  std::string text = make_store(path);
  // Replace the first scalar line's hexfloat with a non-numeric token.
  const std::size_t at = text.find("scalar variance ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t eol = text.find('\n', at);
  text.replace(at, eol - at, "scalar variance zz");
  write_file(path, text);
  EXPECT_TRUE(has_code(audit_store(path), "QD112"));
}

// --- QD113: duplicate records ------------------------------------------------

TEST(StoreAudit, DuplicateCellRecordIsQD113) {
  const std::string path = temp_path("store_dup.ckpt");
  std::string text = make_store(path);
  // Append a second record for an existing key before the end marker,
  // keeping the end count consistent with the *distinct* keys — exactly
  // what strict loading accepts (last record silently wins).
  const std::size_t at = text.find("end 2");
  ASSERT_NE(at, std::string::npos);
  text.insert(at,
              "cell q=4/init=he\nscalar variance 0x1p-3\nendcell\n");
  write_file(path, text);

  // Strict loading accepts the file...
  EXPECT_NO_THROW({ auto loaded = Checkpoint::load(path, "fp"); });
  // ...fsck reports the shadowing.
  const Diagnostics diagnostics = audit_store(path);
  ASSERT_EQ(count_code(diagnostics, "QD113"), 1u);
  EXPECT_TRUE(has_errors(diagnostics));
}

// --- QD114/QD115: expectation mismatches -------------------------------------

TEST(StoreAudit, ForeignFingerprintIsQD114) {
  const std::string path = temp_path("store_foreign.ckpt");
  make_store(path);
  StoreAuditOptions expectations;
  expectations.expected_fingerprint = "other-fp";
  const Diagnostics diagnostics = audit_store(path, expectations);
  ASSERT_TRUE(has_code(diagnostics, "QD114"));
  EXPECT_TRUE(has_errors(diagnostics));
}

TEST(StoreAudit, OrphanCellIsQD115Warning) {
  const std::string path = temp_path("store_orphan.ckpt");
  make_store(path);
  StoreAuditOptions expectations;
  expectations.expected_fingerprint = "fp";
  expectations.expected_cells = {"q=4/init=he"};  // random is an orphan
  const Diagnostics diagnostics = audit_store(path, expectations);
  ASSERT_EQ(count_code(diagnostics, "QD115"), 1u);
  EXPECT_FALSE(has_errors(diagnostics));
}

TEST(StoreAudit, CacheNamespaceIgnoresForeignPrefixes) {
  const std::string path = temp_path("store_cache.ckpt");
  Checkpoint ckpt(path, "cache-fp");
  CheckpointCell cell;
  cell.scalars["v"] = 1.0;
  ckpt.put_cell("fpA|init=he", cell);
  ckpt.put_cell("fpB|init=he", cell);  // another request's cell
  ckpt.flush();

  StoreAuditOptions expectations;
  expectations.expected_fingerprint = "cache-fp";
  expectations.cell_namespace = "fpA|";
  expectations.expected_cells = {"init=he"};
  // fpB's cells are out of scope; fpA's cell matches: clean.
  EXPECT_TRUE(audit_store(path, expectations).empty());

  // But an fpA-namespaced key outside the enumeration is an orphan.
  ckpt.put_cell("fpA|init=bogus", cell);
  ckpt.flush();
  EXPECT_EQ(count_code(audit_store(path, expectations), "QD115"), 1u);
}

// --- agreement with open_salvaging ------------------------------------------

TEST(StoreAudit, EveryQuarantinedCorruptionYieldsAnErrorFinding) {
  // Hand-corrupted variants of the same store. For each: if the salvaging
  // opener quarantines the file, fsck must report at least one QD error —
  // the two layers may never disagree about whether a store is damaged.
  const std::string base_path = temp_path("store_agree.ckpt");
  const std::string full = make_store(base_path);

  std::vector<std::pair<std::string, std::string>> variants;
  variants.emplace_back("truncated mid-cell",
                        full.substr(0, full.find("endcell")));
  variants.emplace_back("truncated before end marker",
                        full.substr(0, full.find("end 2")));
  variants.emplace_back("garbage header",
                        "garbage\n" + full.substr(full.find('\n') + 1));
  std::string wrong_count = full;
  wrong_count.replace(wrong_count.find("end 2"), 5, "end 9");
  variants.emplace_back("wrong end count", wrong_count);
  std::string stale = full;
  stale.replace(stale.find("fingerprint fp"),
                std::string("fingerprint fp").size(),
                "fingerprint other");
  variants.emplace_back("stale fingerprint", stale);
  std::string unknown_tag = full;
  unknown_tag.insert(unknown_tag.find("endcell"), "mystery line\n");
  variants.emplace_back("unknown tag", unknown_tag);

  for (const auto& [name, content] : variants) {
    const std::string path = temp_path("store_agree_case.ckpt");
    write_file(path, content);

    StoreAuditOptions expectations;
    expectations.expected_fingerprint = "fp";
    const Diagnostics diagnostics = audit_store(path, expectations);

    CheckpointSalvage salvage;
    const Checkpoint recovered =
        Checkpoint::open_salvaging(path, "fp", &salvage);
    ASSERT_TRUE(salvage.quarantined) << name;
    EXPECT_TRUE(has_errors(diagnostics)) << name;
  }
}

TEST(StoreAudit, CleanStoreSalvagesCleanAndAuditsClean) {
  const std::string path = temp_path("store_agree_clean.ckpt");
  make_store(path);
  StoreAuditOptions expectations;
  expectations.expected_fingerprint = "fp";
  EXPECT_FALSE(has_errors(audit_store(path, expectations)));
  CheckpointSalvage salvage;
  const Checkpoint recovered =
      Checkpoint::open_salvaging(path, "fp", &salvage);
  EXPECT_FALSE(salvage.quarantined);
  EXPECT_EQ(recovered.cell_count(), 2u);
}

// --- serve store expectations ------------------------------------------------

TEST(StoreAudit, ServeExpectationsMatchEnumerationAndCacheLayout) {
  serve::RequestSpec spec;
  spec.id = "r";
  spec.kind = serve::SpecKind::kTraining;

  const StoreAuditOptions run_store =
      serve::store_expectations(spec, /*cache_store=*/false);
  EXPECT_EQ(run_store.expected_fingerprint, serve::spec_fingerprint(spec));
  EXPECT_TRUE(run_store.cell_namespace.empty());
  ASSERT_FALSE(run_store.expected_cells.empty());
  EXPECT_EQ(run_store.expected_cells.front().rfind("init=", 0), 0u);

  const StoreAuditOptions cache_store =
      serve::store_expectations(spec, /*cache_store=*/true);
  EXPECT_EQ(cache_store.expected_fingerprint,
            serve::ExperimentService::kCacheFingerprint);
  EXPECT_EQ(cache_store.cell_namespace,
            serve::spec_fingerprint(spec) + "|");
}

TEST(StoreAudit, JsonRoundTripOfStoreFindings) {
  const std::string path = temp_path("store_json.ckpt");
  write_file(path, "qbarren-checkpoint 99\nfingerprint fp\nend 0\n");
  const Diagnostics diagnostics = audit_store(path);
  ASSERT_FALSE(diagnostics.empty());
  const Diagnostics restored =
      diagnostics_from_json(parse_json(to_json(diagnostics).dump(2)));
  ASSERT_EQ(restored.size(), diagnostics.size());
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    EXPECT_EQ(restored[i].code, diagnostics[i].code);
    EXPECT_EQ(restored[i].location, diagnostics[i].location);
  }
}

}  // namespace
}  // namespace qbarren
