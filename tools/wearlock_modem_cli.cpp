// Command-line acoustic modem: frame text into a WAV file and recover it
// back - the quickest way to poke at the modem with real audio tools
// (play the WAV through actual speakers, re-record, feed it back).
//
// Usage:
//   wearlock_modem_cli send "hello watch" out.wav [qpsk|qask|8psk] [none|hamming|rep3]
//   wearlock_modem_cli recv in.wav [qpsk|qask|8psk] [none|hamming|rep3]
//   wearlock_modem_cli probe out.wav
//
// Telemetry flags (anywhere on the line): --trace <out.json> writes a
// Chrome trace_event JSON of the modem spans (host-clock timestamps,
// since this tool has no virtual time); --metrics <out.json> dumps the
// metrics registry; --session-log <out.jsonl> appends one telemetry
// SessionRecord for the transaction (config "modem-<command>",
// host-clock total_ms), so modem experiments land in the same
// wearlock_telemetry pipeline as unlock campaigns.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "audio/wav.h"
#include "dsp/spectrogram.h"
#include "modem/datagram.h"
#include "modem/golden.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/trace.h"
#include "sim/executor.h"

namespace {

using namespace wearlock;

/// The modulation a [mod] argument names; nullopt for an unknown name.
std::optional<modem::Modulation> ParseModulation(const std::string& s) {
  if (s == "qpsk") return modem::Modulation::kQpsk;
  if (s == "qask") return modem::Modulation::kQask;
  if (s == "8psk") return modem::Modulation::k8Psk;
  if (s == "bpsk") return modem::Modulation::kBpsk;
  if (s == "bask") return modem::Modulation::kBask;
  if (s == "16qam") return modem::Modulation::k16Qam;
  return std::nullopt;
}

/// The code a [code] argument names; nullopt for an unknown name.
std::optional<modem::CodeScheme> ParseCode(const std::string& s) {
  if (s == "none") return modem::CodeScheme::kNone;
  if (s == "hamming") return modem::CodeScheme::kHamming74;
  if (s == "rep3") return modem::CodeScheme::kRepetition3;
  return std::nullopt;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wearlock_modem_cli send <text> <out.wav> [mod] [code]\n"
               "  wearlock_modem_cli recv <in.wav> [mod] [code]\n"
               "  wearlock_modem_cli probe <out.wav>\n"
               "  wearlock_modem_cli spectrogram <in.wav>\n"
               "  wearlock_modem_cli --regen-golden\n"
               "  mod:  qpsk (default) | qask | 8psk | bpsk | bask | 16qam\n"
               "  code: none (default) | hamming | rep3\n"
               "  --regen-golden reprints the tests/modem_golden_test.cpp\n"
               "  table after an intentional DSP change; --threads <n> sizes\n"
               "  its worker pool (default: WEARLOCK_THREADS or all cores).\n");
  return 2;
}

/// Recompute the golden table in parallel (one task per modulation) and
/// print pasteable rows for tests/modem_golden_test.cpp.
int RegenGolden(std::size_t threads) {
  sim::ParallelExecutor executor(threads);
  const std::vector<modem::Modulation>& mods = modem::AllModulations();
  const auto rows =
      executor.Map(mods.size(), modem::kGoldenSeed, [&](sim::TaskContext& ctx) {
        const auto golden =
            modem::ComputeGoldenVector(mods[ctx.index], modem::kGoldenSeed);
        if (!golden.demodulated) {
          throw std::runtime_error("clean loopback failed for " +
                                   ToString(golden.modulation));
        }
        return modem::FormatGoldenRow(golden);
      });
  std::printf("// seed 0x%llX, %zu payload bits, clean loopback\n",
              static_cast<unsigned long long>(modem::kGoldenSeed),
              modem::kGoldenBits);
  for (const std::string& row : rows) std::printf("    %s\n", row.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull the telemetry/parallelism flags out; everything else stays
  // positional.
  std::string trace_path;
  std::string metrics_path;
  std::string session_log_path;
  std::size_t threads = 0;  // 0 = WEARLOCK_THREADS or hardware default
  bool regen_golden = false;
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--session-log") == 0 && i + 1 < argc) {
      session_log_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = i + 1 < argc ? argv[++i] : "";
      const char* end = v + std::strlen(v);
      const auto result = std::from_chars(v, end, threads);
      if (result.ec != std::errc() || result.ptr != end ||
          threads > sim::ParallelExecutor::kMaxThreads) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--regen-golden") == 0) {
      regen_golden = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(pos.size()) + 1;
  for (int i = 1; i < argc; ++i) argv[i] = pos[i - 1];

  if (regen_golden) return RegenGolden(threads);
  if (argc < 3) return Usage();
  const std::string command = argv[1];

  // send/recv take optional [mod] [code] after their paths; an unknown
  // name is a usage error, caught before any file is touched.
  modem::DatagramConfig config;
  const int mod_index = command == "send" ? 4 : 3;
  const bool has_mod = (command == "send" || command == "recv") &&
                       argc > mod_index;
  if (has_mod) {
    const auto modulation = ParseModulation(argv[mod_index]);
    if (!modulation) return Usage();
    config.modulation = *modulation;
    if (argc > mod_index + 1) {
      const auto code = ParseCode(argv[mod_index + 1]);
      if (!code) return Usage();
      config.code = *code;
    }
  }

  // Host-clock tracer: this tool has no virtual time.
  const auto t0 = std::chrono::steady_clock::now();
  wearlock::obs::Tracer tracer([t0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  });
  wearlock::obs::MetricsRegistry registry;
  wearlock::obs::ScopedTracer install_tracer(&tracer);
  wearlock::obs::ScopedMetricsRegistry install_metrics(&registry);
  auto dump_telemetry = [&]() {
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      tracer.WriteChromeTrace(os);
      std::fprintf(stderr, "wrote %zu spans to %s\n", tracer.spans().size(),
                   trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      registry.WriteJson(os);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
    }
  };

  modem::AcousticModem acoustic_modem;

  auto run = [&]() -> int {
  try {
    if (command == "send" && argc >= 4) {
      const std::string text = argv[2];
      const std::vector<std::uint8_t> payload(text.begin(), text.end());
      const auto tx = modem::SendDatagram(acoustic_modem, config, payload);
      audio::WriteWav(argv[3], tx.samples);
      std::printf("wrote %zu samples (%.2f s, %zu OFDM symbols, %s/%s) to %s\n",
                  tx.samples.size(),
                  static_cast<double>(tx.samples.size()) / audio::kSampleRate,
                  tx.n_symbols, ToString(config.modulation).c_str(),
                  ToString(config.code).c_str(), argv[3]);
      return 0;
    }
    if (command == "recv") {
      const audio::WavData wav = audio::ReadWav(argv[2]);
      const auto result =
          modem::ReceiveDatagram(acoustic_modem, config, wav.samples);
      if (!result) {
        std::printf("no frame found in %s\n", argv[2]);
        return 1;
      }
      const std::string text(result->payload.begin(), result->payload.end());
      std::printf("payload (%zu bytes, CRC %s, preamble score %.2f):\n%s\n",
                  result->payload.size(), result->crc_ok ? "OK" : "BAD",
                  result->preamble_score, text.c_str());
      return result->crc_ok ? 0 : 1;
    }
    if (command == "spectrogram") {
      const audio::WavData wav = audio::ReadWav(argv[2]);
      const auto spec = dsp::ComputeSpectrogram(wav.samples);
      std::printf("%s", dsp::RenderAscii(spec).c_str());
      std::printf("%zu frames x %zu bins, %.1f Hz/bin, %.1f ms/frame\n",
                  spec.power_db.size(),
                  spec.power_db.empty() ? 0 : spec.power_db.front().size(),
                  spec.bin_hz, spec.frame_s * 1000.0);
      return 0;
    }
    if (command == "probe") {
      const auto tx = acoustic_modem.MakeProbeFrame();
      audio::WriteWav(argv[2], tx.samples);
      std::printf("wrote RTS probe frame (%zu samples) to %s\n",
                  tx.samples.size(), argv[2]);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
  };

  const int rc = run();
  dump_telemetry();
  if (!session_log_path.empty()) {
    obs::SessionRecord record;
    record.config = "modem-" + command;
    record.environment = "host";
    record.outcome = rc == 0 ? "ok" : "error";
    record.unlocked = rc == 0;
    record.total_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (has_mod) record.mode = ToString(config.modulation);
    std::ofstream os(session_log_path, std::ios::app);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", session_log_path.c_str());
      return 2;
    }
    os << record.ToJsonl() << "\n";
    std::fprintf(stderr, "appended session record to %s\n",
                 session_log_path.c_str());
  }
  return rc;
}
