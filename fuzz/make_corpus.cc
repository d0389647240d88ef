// Generates the seed corpora for the five fuzz targets.
//
//   make_corpus [output-dir]     (default: fuzz-corpus)
//
// Writes one subdirectory per target — params/ afcz/ afck/ frame/
// server_session/ — each seeded with well-formed outputs of the real
// encoders, so the mutators start from inputs that already pass the outer
// framing checks and spend their budget on the deep parsing paths. The
// AFCK seed is a genuine checkpoint of the same tiny simulation the
// fuzz_afck harness restores into (shape must match: see fuzz/tiny_sim.h).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "fl/checkpoint.h"
#include "net/frame.h"
#include "nn/serialize.h"
#include "tiny_sim.h"

namespace {

namespace fs = std::filesystem;

void WriteSeed(const fs::path& dir, const std::string& name,
               std::span<const std::uint8_t> bytes) {
  const fs::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "make_corpus: failed to write %s\n",
                 path.c_str());
    std::exit(1);
  }
}

std::vector<float> Ramp(std::size_t n) {
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = 0.25f * static_cast<float>(i) - 2.0f;
  }
  return values;
}

void Append(std::vector<std::uint8_t>& out,
            const std::vector<std::uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void AppendU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void MakeParamsSeeds(const fs::path& dir) {
  std::vector<std::uint8_t> empty;
  nn::AppendFlatParams(empty, std::vector<float>{});
  WriteSeed(dir, "empty", empty);

  std::vector<std::uint8_t> small;
  nn::AppendFlatParams(small, Ramp(9));
  WriteSeed(dir, "small", small);

  std::vector<std::uint8_t> two_blocks;
  nn::AppendFlatParams(two_blocks, Ramp(4));
  nn::AppendFlatParams(two_blocks, Ramp(33));
  WriteSeed(dir, "two_blocks", two_blocks);
}

void MakeAfczSeeds(const fs::path& dir) {
  const std::vector<float> values = Ramp(32);
  const char* codecs[] = {"identity", "fp16", "int8", "topk-delta"};
  // Mode 0: framed containers through ParseAnyParams.
  for (const char* name : codecs) {
    std::vector<std::uint8_t> bytes{0x00};
    compress::AppendEncodedParams(bytes, compress::Get(name), values);
    WriteSeed(dir, std::string("container_") + name, bytes);
  }
  // Mode 0 also accepts raw AFPM (identity payloads).
  std::vector<std::uint8_t> raw{0x00};
  nn::AppendFlatParams(raw, values);
  WriteSeed(dir, "container_raw_afpm", raw);
  // Modes 1-4: (count, body) fed straight to each codec's DecodeBody.
  for (std::uint8_t mode = 1; mode <= 4; ++mode) {
    std::vector<std::uint8_t> bytes{mode};
    AppendU64(bytes, values.size());
    std::vector<std::uint8_t> body;
    compress::Get(codecs[mode - 1]).EncodeBody(values, body);
    Append(bytes, body);
    WriteSeed(dir, std::string("body_") + codecs[mode - 1], bytes);
  }
}

void MakeAfckSeeds(const fs::path& dir) {
  auto bundle = fuzz_harness::BuildTinySim();
  // A fresh checkpoint and a mid-run one: the latter carries a non-empty
  // event queue / deferred buffer, so mutations reach those sections too.
  fl::SaveCheckpoint((dir / "fresh").string(), *bundle->sim);
  bundle->sim->Run();
  fl::SaveCheckpoint((dir / "finished").string(), *bundle->sim);
}

void MakeFrameSeeds(const fs::path& dir) {
  const std::vector<float> params = Ramp(8);

  WriteSeed(dir, "hello", net::EncodeFrame(net::EncodeHello({{1}})));
  WriteSeed(dir, "hello_many",
            net::EncodeFrame(net::EncodeHello({{0, 1, 0x7FFFFFFF}})));
  WriteSeed(dir, "offer",
            net::EncodeFrame(net::EncodeOffer({{"fp16", "int8"}, true})));
  WriteSeed(dir, "offer_empty", net::EncodeFrame(net::EncodeOffer({})));
  WriteSeed(dir, "select",
            net::EncodeFrame(net::EncodeSelect({"fp16", true})));
  WriteSeed(dir, "ack", net::EncodeFrame(net::EncodeAck({1})));
  WriteSeed(dir, "shutdown", net::EncodeFrame(net::MakeShutdownFrame()));

  net::ModelBroadcastMsg broadcast;
  broadcast.round = 3;
  broadcast.job_index = 7;
  broadcast.params = params;
  broadcast.client_id = 3;
  broadcast.trace_id = 0x1122334455667788ull;
  broadcast.parent_span_id = 0x99aabbccddeeff00ull;
  WriteSeed(dir, "broadcast_traced",
            net::EncodeFrame(net::EncodeModelBroadcast(broadcast)));
  // One fp16 model broadcast to two jobs: the second frame's block hits
  // the cached decode, so mutations land on both the hit and miss paths.
  std::vector<std::uint8_t> same_model = net::EncodeFrame(
      net::EncodeModelBroadcast(broadcast, &compress::Get("fp16")));
  broadcast.job_index = 8;
  broadcast.client_id = 4;
  Append(same_model, net::EncodeFrame(net::EncodeModelBroadcast(
                         broadcast, &compress::Get("fp16"))));
  WriteSeed(dir, "broadcast_fp16_twice", same_model);

  net::ClientUpdateMsg update;
  update.client_id = 3;
  update.job_index = 2;
  update.base_round = 1;
  update.num_samples = 40;
  update.delta = params;
  WriteSeed(dir, "update_raw",
            net::EncodeFrame(net::EncodeClientUpdate(update)));
  WriteSeed(dir, "update_fp16",
            net::EncodeFrame(net::EncodeClientUpdate(
                update, &compress::Get("fp16"))));

  // Two frames back to back (the stream decoder loops), and a bare prefix
  // (DecodeFrame must report "incomplete", not throw).
  std::vector<std::uint8_t> pair = net::EncodeFrame(net::EncodeHello({{5}}));
  Append(pair, net::EncodeFrame(net::EncodeClientUpdate(update)));
  WriteSeed(dir, "two_frames", pair);
  const std::vector<std::uint8_t> whole =
      net::EncodeFrame(net::EncodeModelBroadcast(broadcast));
  WriteSeed(dir, "partial",
            std::span<const std::uint8_t>(whole).subspan(0, 20));
}

void MakeServerSessionSeeds(const fs::path& dir) {
  // A full well-formed session: hello, select, one update.
  net::ClientUpdateMsg update;
  update.client_id = 5;
  update.job_index = 1;
  update.base_round = 0;
  update.num_samples = 10;
  update.delta = Ramp(6);
  std::vector<std::uint8_t> good = net::EncodeFrame(net::EncodeHello({{5}}));
  Append(good, net::EncodeFrame(net::EncodeSelect({"identity", false})));
  Append(good, net::EncodeFrame(net::EncodeClientUpdate(update)));
  WriteSeed(dir, "full_session", good);

  // A hello naming many ids, one of them INT_MAX (the boundary id).
  std::vector<std::uint8_t> many =
      net::EncodeFrame(net::EncodeHello({{6, 7, 0x7FFFFFFF}}));
  Append(many, net::EncodeFrame(net::EncodeSelect({"fp16", true})));
  WriteSeed(dir, "hello_many", many);

  // A select naming a codec the server did not offer.
  std::vector<std::uint8_t> unoffered =
      net::EncodeFrame(net::EncodeHello({{8}}));
  Append(unoffered,
         net::EncodeFrame(net::EncodeSelect({"topk-delta", false})));
  WriteSeed(dir, "select_unoffered", unoffered);

  // A hello whose id is the -1 sentinel (EncodeHello refuses negative ids,
  // so the id bytes are patched in after encoding).
  std::vector<std::uint8_t> negative =
      net::EncodeFrame(net::EncodeHello({{5}}));
  for (std::size_t i = negative.size() - 4; i < negative.size(); ++i) {
    negative[i] = 0xFF;
  }
  WriteSeed(dir, "hello_neg", negative);

  // The retired hello form: an Ack as the first frame.
  WriteSeed(dir, "ack_first", net::EncodeFrame(net::EncodeAck({5})));

  // An update before any handshake (must evict only the sender).
  WriteSeed(dir, "update_first",
            net::EncodeFrame(net::EncodeClientUpdate(update)));

  // A header declaring a huge payload that never arrives.
  std::vector<std::uint8_t> stall;
  for (std::uint8_t b : {0x41, 0x46, 0x4e, 0x54}) stall.push_back(b);
  stall.push_back(1);
  stall.push_back(0);  // version 1
  stall.push_back(3);
  stall.push_back(0);  // type Ack
  AppendU64(stall, (1ull << 30) - 1);
  WriteSeed(dir, "stalled_header", stall);
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? argv[1] : "fuzz-corpus";
  const struct {
    const char* name;
    void (*make)(const fs::path&);
  } targets[] = {
      {"params", MakeParamsSeeds},
      {"afcz", MakeAfczSeeds},
      {"afck", MakeAfckSeeds},
      {"frame", MakeFrameSeeds},
      {"server_session", MakeServerSessionSeeds},
  };
  for (const auto& target : targets) {
    const fs::path dir = root / target.name;
    fs::create_directories(dir);
    target.make(dir);
  }
  std::printf("make_corpus: wrote seeds under %s\n", root.c_str());
  return 0;
}
