// Attack demonstration: the three §IV threats run against a live
// deployment, each defeated by a different mechanism.
//
//   brute force  -> 3-strike keyguard lockout over a 2^32 keyspace
//   co-located   -> propagation loss: BER explodes past ~1 m
//   replay       -> OTP freshness + the acoustic timing window
//
// Build & run:  ./build/examples/example_attack_demo
#include <cstdio>

#include "modem/modem.h"
#include "protocol/attack_agents.h"

int main() {
  using namespace wearlock;
  using namespace wearlock::protocol;

  std::printf("=== 1. Brute force ===\n");
  std::printf("The attacker holds the victim's phone out of acoustic range\n"
              "and fires random 32-bit token guesses at the validator.\n");
  {
    sim::Rng rng(99);
    OtpService otp({'s', 'e', 'c', 'r', 'e', 't'});
    Keyguard keyguard;
    otp.NextTokenBits();  // a deployment always has one token live
    int guesses = 0;
    bool accepted = false;
    while (keyguard.CanAttemptWearlock() && guesses < 50 && !accepted) {
      ++guesses;
      const auto guess =
          static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFFull));
      accepted = otp.ValidateBits(modem::BitsFromWord(guess), 0.1).accepted;
      if (!accepted) keyguard.ReportFailure();
    }
    std::printf("  guesses fired : %d\n", guesses);
    std::printf("  any accepted  : %s\n", accepted ? "YES (!)" : "no");
    std::printf("  keyguard      : %s\n\n",
                keyguard.state() == LockState::kLockedOut
                    ? "LOCKED OUT after 3 failures"
                    : "open");
  }

  std::printf("=== 2. Co-located attacker ===\n");
  std::printf("The attacker carries the phone toward the victim's watch and\n"
              "presses power at decreasing distances.\n");
  for (double d : {3.0, 2.0, 1.4, 0.8, 0.4}) {
    ScenarioConfig scenario = ScenarioConfig::Config1();
    scenario.seed = 31;
    scenario.scene.distance_m = d;
    // The attacker holds still next to a still victim: assume motion
    // gets through and let the modem's range bound do the work.
    scenario.phone.enable_sensor_filter = false;
    const UnlockReport report = UnlockSession(scenario).Attempt();
    std::printf("  %.1f m: %-16s (token BER %.3f)%s\n", d,
                ToString(report.outcome).c_str(), report.token_ber,
                report.unlocked ? "  <- inside the secure range" : "");
  }
  std::printf("  The modem itself is the rangefinder: beyond ~1 m no mode\n"
              "  meets the BER bound, so the phone refuses to transmit.\n\n");

  std::printf("=== 3. Record-and-replay ===\n");
  std::printf("The attacker tapes Phase 2 of a legitimate unlock from 60 cm\n"
              "away, then replays the tape into a later session.\n");
  {
    ScenarioConfig scenario = ScenarioConfig::Config1();
    scenario.seed = 32;
    const AttackReport slow = RunAttackScenario(
        scenario, sim::AttackSpec::Parse("replay@0.6:delay=800"));
    std::printf("  replay w/ 800 ms lag : %s\n",
                ToString(slow.victim_outcome).c_str());
    const AttackReport instant = RunAttackScenario(
        scenario, sim::AttackSpec::Parse("replay@0.6:delay=0"));
    std::printf("  hypothetical 0-lag   : %s (stale token, BER %.2f)\n",
                ToString(instant.victim_outcome).c_str(),
                instant.attacker_token_ber);
  }
  std::printf("  Every unlock burns its counter: the recorded token never\n"
              "  validates again, and real replay gear adds detectable lag.\n");
  return 0;
}
