// Fault-injection campaigns: detection guarantees, recovery policies and
// seed-determinism of the harness in src/ckpt/fault.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ckpt/fault.hpp"
#include "obs/registry.hpp"

namespace xpulp::ckpt {
namespace {

/// Small layer so a hundred trials stay fast; everything else defaults.
CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.spec = qnn::ConvSpec::small_layer(4);
  cfg.ckpt_every = 500;
  return cfg;
}

TEST(FaultCampaign, TcdmFlipsAlwaysDetected) {
  // The memory scrub closes the detection stack: a TCDM flip in a
  // persistent region either perturbs the run observably or survives into
  // the final image — there is no escape path.
  CampaignConfig cfg = small_config();
  cfg.seed = 42;
  cfg.num_faults = 100;
  const CampaignReport rep = run_campaign(cfg);

  EXPECT_EQ(rep.injected, 100);
  EXPECT_EQ(rep.undetected, 0);
  EXPECT_EQ(rep.masked, 0);  // persistent-region flips are never dead
  EXPECT_DOUBLE_EQ(rep.detection_rate(), 1.0);
  EXPECT_GT(rep.reference_instructions, 0u);

  // Transient flips must actually recover via restore-and-retry; only
  // persistent (stuck-at) faults may exhaust the retry budget.
  for (const FaultRecord& r : rep.records) {
    ASSERT_NE(r.outcome, FaultOutcome::kUndetected);
    if (r.outcome == FaultOutcome::kDetectedUnrecovered) {
      EXPECT_TRUE(r.spec.persistent) << r.note;
    }
    if (!r.spec.persistent) {
      EXPECT_EQ(r.outcome, FaultOutcome::kDetectedRecovered) << r.note;
    }
  }
  const bool any_recovered =
      std::any_of(rep.records.begin(), rep.records.end(), [](const auto& r) {
        return r.outcome == FaultOutcome::kDetectedRecovered;
      });
  EXPECT_TRUE(any_recovered);
}

TEST(FaultCampaign, SameSeedSameFingerprint) {
  CampaignConfig cfg = small_config();
  cfg.seed = 7;
  cfg.num_faults = 30;
  const CampaignReport a = run_campaign(cfg);
  const CampaignReport b = run_campaign(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.recovered, b.recovered);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].spec.at_instruction,
              b.records[i].spec.at_instruction);
    EXPECT_EQ(a.records[i].spec.addr, b.records[i].spec.addr);
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome);
  }

  cfg.seed = 8;
  const CampaignReport c = run_campaign(cfg);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(FaultCampaign, SuperblockEngineClassifiesEveryFaultAlike) {
  // Trials advance through run_steps, so with the superblock engine on
  // the hot loops between injection and checkpoint indices run fused. The
  // engine is exact, so every record and the fingerprint must match the
  // interpreted campaign's.
  CampaignConfig cfg = small_config();
  cfg.seed = 11;
  cfg.num_faults = 40;
  cfg.kinds = {FaultKind::kTcdmBitFlip, FaultKind::kRegisterBitFlip,
               FaultKind::kStallPerturb, FaultKind::kIsaDegrade};
  cfg.core.superblock = false;
  const CampaignReport plain = run_campaign(cfg);
  cfg.core.superblock = true;
  const CampaignReport fused = run_campaign(cfg);

  EXPECT_EQ(plain.fused_instructions, 0u);
  EXPECT_GT(fused.fused_instructions, 0u);
  EXPECT_EQ(plain.fingerprint(), fused.fingerprint());
  ASSERT_EQ(plain.records.size(), fused.records.size());
  for (size_t i = 0; i < plain.records.size(); ++i) {
    const FaultRecord& a = plain.records[i];
    const FaultRecord& b = fused.records[i];
    EXPECT_EQ(a.spec.at_instruction, b.spec.at_instruction) << i;
    EXPECT_EQ(a.outcome, b.outcome) << i;
    EXPECT_EQ(a.detector, b.detector) << i;
    EXPECT_EQ(a.retries_used, b.retries_used) << i;
    EXPECT_EQ(a.used_fallback, b.used_fallback) << i;
    EXPECT_EQ(a.note, b.note) << i;
  }
}

TEST(FaultCampaign, MixedKindsClassifyByDetector) {
  CampaignConfig cfg = small_config();
  cfg.seed = 11;
  cfg.num_faults = 40;
  cfg.kinds = {FaultKind::kTcdmBitFlip, FaultKind::kRegisterBitFlip,
               FaultKind::kStallPerturb, FaultKind::kIsaDegrade};
  const CampaignReport rep = run_campaign(cfg);

  EXPECT_EQ(rep.injected, 40);
  EXPECT_EQ(rep.undetected, 0);
  EXPECT_DOUBLE_EQ(rep.detection_rate(), 1.0);

  for (const FaultRecord& r : rep.records) {
    switch (r.spec.kind) {
      case FaultKind::kStallPerturb:
        // A perturbed cycle counter breaks exactly the accounting
        // invariant; nothing architectural changes.
        EXPECT_EQ(r.detector, Detector::kPerfInvariant);
        EXPECT_EQ(r.outcome, FaultOutcome::kDetectedRecovered);
        break;
      case FaultKind::kIsaDegrade:
        // Sub-byte SIMD turns illegal mid-kernel: the guest traps, and the
        // default policy recovers through the XpulpV2 fallback kernel.
        EXPECT_EQ(r.detector, Detector::kTrap);
        EXPECT_EQ(r.outcome, FaultOutcome::kDetectedRecovered);
        EXPECT_TRUE(r.used_fallback);
        break;
      case FaultKind::kRegisterBitFlip:
        // May be masked (dead register); if not, it must be detected.
        if (r.outcome != FaultOutcome::kMasked) {
          EXPECT_NE(r.detector, Detector::kNone);
        }
        break;
      case FaultKind::kTcdmBitFlip:
        EXPECT_NE(r.outcome, FaultOutcome::kUndetected);
        break;
    }
  }
}

TEST(FaultCampaign, EveryDetectedRecordExplainsItself) {
  // The note is the failure explanation the tests above stream: it names
  // the detector, the retries and the fallback, and a wrong output's
  // first mismatching element. Masked faults have nothing to explain.
  CampaignConfig cfg = small_config();
  cfg.seed = 11;
  cfg.num_faults = 40;
  cfg.kinds = {FaultKind::kTcdmBitFlip, FaultKind::kRegisterBitFlip,
               FaultKind::kStallPerturb, FaultKind::kIsaDegrade};
  const CampaignReport rep = run_campaign(cfg);
  int mismatches = 0;
  for (const FaultRecord& r : rep.records) {
    if (r.outcome == FaultOutcome::kMasked) {
      EXPECT_TRUE(r.note.empty()) << r.note;
      continue;
    }
    ASSERT_FALSE(r.note.empty());
    const std::string detector =
        std::string("detector ") + detector_name(r.detector);
    EXPECT_EQ(r.note.rfind(detector, 0), 0u) << r.note;
    EXPECT_NE(r.note.find("; retries " + std::to_string(r.retries_used)),
              std::string::npos)
        << r.note;
    EXPECT_EQ(r.note.find("fallback kernel ran") != std::string::npos,
              r.used_fallback)
        << r.note;
    if (r.detector == Detector::kOutputMismatch) {
      EXPECT_NE(r.note.find("golden"), std::string::npos) << r.note;
      ++mismatches;
    }
  }
  EXPECT_GT(mismatches, 0);
}

TEST(FaultCampaign, IsaDegradeNeedsFallbackPolicy) {
  CampaignConfig cfg = small_config();
  cfg.seed = 5;
  cfg.num_faults = 8;
  cfg.kinds = {FaultKind::kIsaDegrade};

  const CampaignReport with = run_campaign(cfg);
  EXPECT_EQ(with.detected, 8);
  EXPECT_EQ(with.recovered, 8);
  for (const FaultRecord& r : with.records) EXPECT_TRUE(r.used_fallback);

  // Without graceful degradation the fault is permanent: restore-and-retry
  // re-trips the dead functional unit every time.
  cfg.fallback_isa = false;
  const CampaignReport without = run_campaign(cfg);
  EXPECT_EQ(without.detected, 8);
  EXPECT_EQ(without.recovered, 0);
  EXPECT_EQ(without.unrecovered, 8);
}

TEST(FaultCampaign, PublishesRegistryMetrics) {
  CampaignConfig cfg = small_config();
  cfg.seed = 13;
  cfg.num_faults = 10;
  const CampaignReport rep = run_campaign(cfg);

  obs::Registry reg;
  rep.publish(reg, "xfault");
  for (const char* key :
       {"xfault.injected", "xfault.detected", "xfault.recovered",
        "xfault.detection_rate", "xfault.fingerprint"}) {
    EXPECT_TRUE(reg.contains(key)) << key;
  }
  // The export must be serializable (no leaf/prefix path collisions).
  EXPECT_FALSE(reg.json().empty());
}

}  // namespace
}  // namespace xpulp::ckpt
