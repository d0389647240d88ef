#include "net/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace net {
namespace {

std::vector<std::uint8_t> Corrupted(const Frame& frame, std::size_t at,
                                    std::uint8_t value) {
  std::vector<std::uint8_t> bytes = EncodeFrame(frame);
  bytes[at] = value;
  return bytes;
}

TEST(FrameTest, RoundTripsEveryMessageType) {
  ModelBroadcastMsg broadcast;
  broadcast.round = 7;
  broadcast.job_index = 42;
  broadcast.params = {1.5f, -2.0f, 0.0f, 3.25f};
  broadcast.client_id = 13;

  ClientUpdateMsg update;
  update.client_id = 13;
  update.job_index = 42;
  update.base_round = 7;
  update.num_samples = 100;
  update.delta = {-0.5f, 0.25f};

  AckMsg ack{99};
  const HelloMsg hello{{0, 13, 0x7FFFFFFF}};
  const OfferMsg offer{{"fp16"}, true};
  const SelectMsg select{"fp16", true};

  for (const Frame& frame :
       {EncodeModelBroadcast(broadcast), EncodeClientUpdate(update),
        EncodeAck(ack), MakeShutdownFrame(), EncodeHello(hello),
        EncodeOffer(offer), EncodeSelect(select)}) {
    const std::vector<std::uint8_t> bytes = EncodeFrame(frame);
    Frame decoded;
    ASSERT_EQ(DecodeFrame(bytes, &decoded), bytes.size());
    EXPECT_EQ(decoded.type, frame.type);
    EXPECT_EQ(decoded.payload, frame.payload);
  }

  // Decoded views alias the frame payload, so the frames must stay alive
  // for as long as the messages are inspected (a temporary here is a
  // compile error by design).
  const Frame broadcast_frame = EncodeModelBroadcast(broadcast);
  const ModelBroadcastMsg b2 = DecodeModelBroadcast(broadcast_frame);
  EXPECT_EQ(b2.round, broadcast.round);
  EXPECT_EQ(b2.job_index, broadcast.job_index);
  EXPECT_EQ(b2.params, broadcast.params);
  EXPECT_EQ(b2.client_id, broadcast.client_id);

  const Frame update_frame = EncodeClientUpdate(update);
  const ClientUpdateMsg u2 = DecodeClientUpdate(update_frame);
  EXPECT_EQ(u2.client_id, update.client_id);
  EXPECT_EQ(u2.job_index, update.job_index);
  EXPECT_EQ(u2.base_round, update.base_round);
  EXPECT_EQ(u2.num_samples, update.num_samples);
  EXPECT_EQ(u2.delta, update.delta);

  EXPECT_EQ(DecodeAck(EncodeAck(ack)).value, ack.value);
  EXPECT_EQ(DecodeHello(EncodeHello(hello)).client_ids, hello.client_ids);
}

TEST(FrameTest, PartialFrameConsumesNothing) {
  const std::vector<std::uint8_t> bytes = EncodeFrame(EncodeAck({5}));
  Frame out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeFrame(std::span(bytes).first(len), &out), 0u)
        << "prefix of " << len << " bytes decoded as a whole frame";
  }
  EXPECT_EQ(DecodeFrame(bytes, &out), bytes.size());
}

TEST(FrameTest, BadMagicThrows) {
  const auto bytes = Corrupted(EncodeAck({5}), 0, 0xFF);
  Frame out;
  EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError);
}

TEST(FrameTest, WrongVersionThrows) {
  const auto bytes = Corrupted(EncodeAck({5}), 4, 0x7F);  // version low byte
  Frame out;
  EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError);
}

TEST(FrameTest, UnknownTypeThrows) {
  const auto bytes = Corrupted(EncodeAck({5}), 6, 0x66);  // type low byte
  Frame out;
  EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError);
}

TEST(FrameTest, OversizedLengthThrows) {
  std::vector<std::uint8_t> bytes = EncodeFrame(EncodeAck({5}));
  const std::uint64_t absurd = kMaxFramePayload + 1;
  std::memcpy(bytes.data() + 8, &absurd, sizeof(absurd));
  Frame out;
  EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError);
}

TEST(FrameTest, TypedDecoderRejectsWrongFrameType) {
  EXPECT_THROW(DecodeAck(EncodeModelBroadcast({})), util::CheckError);
  const Frame ack = EncodeAck({1});
  EXPECT_THROW(DecodeModelBroadcast(ack), util::CheckError);
  const Frame shutdown = MakeShutdownFrame();
  EXPECT_THROW(DecodeClientUpdate(shutdown), util::CheckError);
}

TEST(FrameTest, TypedDecoderRejectsTruncatedPayload) {
  Frame frame = EncodeClientUpdate(
      {.client_id = 1, .job_index = 2, .base_round = 3, .num_samples = 4,
       .delta = {1.0f, 2.0f, 3.0f}});
  frame.payload.resize(frame.payload.size() / 2);
  EXPECT_THROW(DecodeClientUpdate(frame), util::CheckError);

  // A hello count larger than the payload must throw before allocating.
  Frame hello = EncodeHello({{1, 2}});
  hello.payload[0] = 0xFF;
  EXPECT_THROW(DecodeHello(hello), util::CheckError);
}

TEST(FrameTest, TypedDecoderRejectsTrailingBytes) {
  Frame frame = EncodeAck({17});
  frame.payload.push_back(0);
  EXPECT_THROW(DecodeAck(frame), util::CheckError);
}

TEST(FrameTest, EmptyModelRoundTrips) {
  const Frame frame = EncodeModelBroadcast({});
  const ModelBroadcastMsg msg = DecodeModelBroadcast(frame);
  EXPECT_TRUE(msg.params.empty());
}

TEST(FrameTest, CodecOfferAndSelectRoundTrip) {
  const OfferMsg offer =
      DecodeOffer(EncodeOffer({{"fp16", "int8", "identity"}, false}));
  EXPECT_EQ(offer.codecs,
            (std::vector<std::string>{"fp16", "int8", "identity"}));
  EXPECT_TRUE(DecodeOffer(EncodeOffer({})).codecs.empty());
  EXPECT_EQ(DecodeSelect(EncodeSelect({"topk-delta", false})).codec,
            "topk-delta");
}

TEST(FrameTest, TraceOfferAndSelectRoundTrip) {
  EXPECT_TRUE(DecodeOffer(EncodeOffer({{}, true})).trace_context);
  EXPECT_FALSE(DecodeOffer(EncodeOffer({{}, false})).trace_context);
  EXPECT_TRUE(DecodeSelect(EncodeSelect({"identity", true})).trace_context);
  EXPECT_FALSE(DecodeSelect(EncodeSelect({"identity", false})).trace_context);
}

TEST(FrameTest, BroadcastCarriesClientIdRightAfterParams) {
  // Fixed layout: u64 round, u64 job_index, the parameter block, i32
  // client_id, then the optional AFTC block. The id sits where it does so
  // an AFCZ container still starts at payload offset 16.
  ModelBroadcastMsg msg{.round = 1, .job_index = 2, .params = {3.0f, 4.0f},
                        .client_id = 0x01020304};
  const Frame untraced = EncodeModelBroadcast(msg);
  const std::size_t id_at = 16 + nn::FlatParamsWireSize(msg.params.size());
  ASSERT_EQ(untraced.payload.size(), id_at + 4);
  std::int32_t id = 0;
  std::memcpy(&id, untraced.payload.data() + id_at, sizeof(id));
  EXPECT_EQ(id, msg.client_id);

  msg.trace_id = 0x99ull;
  const Frame traced = EncodeModelBroadcast(msg);
  EXPECT_EQ(std::vector<std::uint8_t>(traced.payload.begin(),
                                      traced.payload.begin() + id_at + 4),
            untraced.payload);
  const ModelBroadcastMsg decoded = DecodeModelBroadcast(traced);
  EXPECT_EQ(decoded.client_id, msg.client_id);
  EXPECT_EQ(decoded.trace_id, msg.trace_id);

  // A payload cut inside the id field is truncated, not "no id".
  Frame cut = untraced;
  cut.payload.resize(id_at + 2);
  EXPECT_THROW(DecodeModelBroadcast(cut), util::CheckError);
}

TEST(FrameTest, TraceContextRoundTripsOnBroadcastAndUpdate) {
  ModelBroadcastMsg broadcast;
  broadcast.round = 2;
  broadcast.job_index = 5;
  broadcast.params = {1.0f, -1.0f};
  broadcast.trace_id = 0x1111222233334444ull;
  broadcast.parent_span_id = 0x5555666677778888ull;
  const Frame traced_frame = EncodeModelBroadcast(broadcast);
  const ModelBroadcastMsg b2 = DecodeModelBroadcast(traced_frame);
  EXPECT_EQ(b2.params, broadcast.params);
  EXPECT_EQ(b2.trace_id, broadcast.trace_id);
  EXPECT_EQ(b2.parent_span_id, broadcast.parent_span_id);

  ClientUpdateMsg update;
  update.client_id = 3;
  update.job_index = 5;
  update.delta = {0.5f};
  update.trace_id = 0xAAAAull;
  update.parent_span_id = 0xBBBBull;
  const Frame frame = EncodeClientUpdate(update);
  const ClientUpdateMsg u2 = DecodeClientUpdate(frame);
  EXPECT_EQ(u2.delta, update.delta);
  EXPECT_EQ(u2.trace_id, update.trace_id);
  EXPECT_EQ(u2.parent_span_id, update.parent_span_id);
  // The decoder reports the wire cost of the whole payload.
  EXPECT_EQ(u2.wire_bytes, frame.payload.size());
}

TEST(FrameTest, UntracedMessagesStayByteIdenticalToLegacy) {
  // trace_id == 0 must not grow the payload by a single byte: an untraced
  // run sends no AFTC block at all.
  ModelBroadcastMsg broadcast{.round = 1, .job_index = 2,
                              .params = {3.0f, 4.0f}};
  const Frame untraced = EncodeModelBroadcast(broadcast);
  broadcast.trace_id = 0x77ull;
  const Frame traced = EncodeModelBroadcast(broadcast);
  EXPECT_EQ(traced.payload.size(), untraced.payload.size() + 20);

  ClientUpdateMsg update{.client_id = 1, .job_index = 2, .base_round = 0,
                         .num_samples = 10, .delta = {1.0f}};
  const Frame plain = EncodeClientUpdate(update);
  const ClientUpdateMsg decoded = DecodeClientUpdate(plain);
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_EQ(decoded.parent_span_id, 0u);
}

TEST(FrameTest, TrailingGarbageStillThrowsWithTraceBlocksInPlay) {
  // The trace block is sniffed by size + magic; arbitrary trailing bytes
  // that are not a well-formed block must still fail decoding.
  Frame frame = EncodeModelBroadcast({.round = 1, .params = {1.0f}});
  frame.payload.push_back(0xAB);
  EXPECT_THROW(DecodeModelBroadcast(frame), util::CheckError);

  // Exactly 20 trailing bytes with the wrong magic are garbage, not a block.
  Frame frame2 = EncodeModelBroadcast({.round = 1, .params = {1.0f}});
  frame2.payload.resize(frame2.payload.size() + 20, 0x00);
  EXPECT_THROW(DecodeModelBroadcast(frame2), util::CheckError);
}

TEST(FrameTest, IdentityCodecProducesLegacyBytes) {
  // The null codec and the identity codec must emit the same raw AFPM
  // block, the on-disk checkpoint form.
  const ModelBroadcastMsg msg{.round = 3, .job_index = 9,
                              .params = {1.0f, -2.0f, 0.5f}};
  const Frame raw = EncodeModelBroadcast(msg);
  const Frame identity =
      EncodeModelBroadcast(msg, &compress::Get("identity"));
  EXPECT_EQ(identity.payload, raw.payload);
}

TEST(FrameTest, CompressedBroadcastRoundTrips) {
  ModelBroadcastMsg msg;
  msg.round = 11;
  msg.job_index = 4;
  msg.params = {0.5f, -0.25f, 2.0f, 0.0f};  // half-representable → exact
  const Frame frame = EncodeModelBroadcast(msg, &compress::Get("fp16"));
  const ModelBroadcastMsg decoded = DecodeModelBroadcast(frame);
  EXPECT_EQ(decoded.round, msg.round);
  EXPECT_EQ(decoded.job_index, msg.job_index);
  EXPECT_EQ(decoded.params, msg.params);
}

// The LeNet surrogate's parameter count: enough floats for the fp16 path's
// 8-lane body and a ragged tail.
std::vector<float> ModelParams(float scale) {
  std::vector<float> params(4538);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] = scale * std::sin(0.01f * static_cast<float>(i));
  }
  return params;
}

std::string ThrownMessage(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected util::CheckError";
  return {};
}

TEST(FrameTest, BlockFormMatchesEncodeModelBroadcast) {
  // Encoding the parameter block once and framing it per job must put the
  // same bytes on the wire as encoding each job's broadcast in full.
  ModelBroadcastMsg msg;
  msg.round = 12;
  msg.job_index = 345;
  msg.params = ModelParams(0.3f);
  msg.client_id = 1999;
  for (const compress::Codec* codec :
       {static_cast<const compress::Codec*>(nullptr),
        &compress::Get("identity"), &compress::Get("fp16")}) {
    for (const std::uint64_t trace_id : {0ull, 0x1234abcdull}) {
      SCOPED_TRACE(std::string(codec == nullptr ? "null" : codec->name()) +
                   (trace_id == 0 ? " untraced" : " traced"));
      msg.trace_id = trace_id;
      msg.parent_span_id = trace_id == 0 ? 0 : 77;
      const std::vector<std::uint8_t> expected =
          EncodeFrame(EncodeModelBroadcast(msg, codec));
      const std::vector<std::uint8_t> block =
          EncodeParamsBlock(msg.params, codec);
      ModelBroadcastMsg without_params = msg;
      without_params.params = {};
      // Appends after whatever the outbox already holds.
      std::vector<std::uint8_t> outbox = {0x01, 0x02, 0x03};
      AppendModelBroadcastFrame(outbox, without_params, block);
      ASSERT_EQ(outbox.size(), 3 + expected.size());
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             outbox.begin() + 3));
    }
  }
}

TEST(FrameTest, CachedDecodeSharesFloatsOfAnIdenticalBlock) {
  const compress::Codec* fp16 = &compress::Get("fp16");
  const ModelBroadcastMsg first_msg{.round = 1, .job_index = 10,
                                    .params = ModelParams(0.5f),
                                    .client_id = 3};
  ModelBroadcastMsg second_msg = first_msg;
  second_msg.job_index = 11;
  second_msg.client_id = 4;
  second_msg.trace_id = 99;
  second_msg.parent_span_id = 5;
  const Frame first = EncodeModelBroadcast(first_msg, fp16);
  const Frame second = EncodeModelBroadcast(second_msg, fp16);

  BroadcastDecodeCache cache;
  const ModelBroadcastMsg a = DecodeModelBroadcast(first, &cache);
  const ModelBroadcastMsg b = DecodeModelBroadcast(second, &cache);
  EXPECT_EQ(a.params, DecodeModelBroadcast(first).params);
  EXPECT_TRUE(a.params.has_keepalive());
  EXPECT_EQ(b.params.data(), a.params.data());  // hit: no second decode
  EXPECT_EQ(b.job_index, 11u);
  EXPECT_EQ(b.client_id, 4);
  EXPECT_EQ(b.trace_id, 99u);
  EXPECT_EQ(b.parent_span_id, 5u);

  // A different model misses, decodes in full and becomes the cache; the
  // earlier view keeps its own floats.
  ModelBroadcastMsg third_msg = first_msg;
  third_msg.params = ModelParams(-0.5f);
  const Frame third = EncodeModelBroadcast(third_msg, fp16);
  const ModelBroadcastMsg c = DecodeModelBroadcast(third, &cache);
  EXPECT_NE(c.params.data(), a.params.data());
  EXPECT_EQ(c.params, DecodeModelBroadcast(third).params);
  EXPECT_EQ(a.params, DecodeModelBroadcast(first).params);
  EXPECT_EQ(DecodeModelBroadcast(third, &cache).params.data(),
            c.params.data());

  // Raw AFPM blocks decode as views into the frame; the cache owns a copy,
  // so its floats outlive the frame.
  BroadcastDecodeCache raw_cache;
  UpdateView kept;
  {
    const Frame raw = EncodeModelBroadcast(first_msg);
    kept = DecodeModelBroadcast(raw, &raw_cache).params;
  }
  EXPECT_TRUE(kept.has_keepalive());
  EXPECT_EQ(kept, first_msg.params);
}

TEST(FrameTest, CachedDecodeFollowsInterleavedModels) {
  // The cache holds one block: frames that alternate between two models
  // decode each afresh, and every frame still gets its own model's floats.
  const compress::Codec* fp16 = &compress::Get("fp16");
  const std::vector<Frame> frames = {
      EncodeModelBroadcast({.round = 1, .params = ModelParams(0.5f)}, fp16),
      EncodeModelBroadcast({.round = 2, .params = ModelParams(-0.5f)}, fp16)};
  obs::Counter& hits =
      obs::DefaultRegistry().GetCounter("net.broadcast_cache.hits");
  obs::Counter& misses =
      obs::DefaultRegistry().GetCounter("net.broadcast_cache.misses");
  const std::uint64_t hits_before = hits.Value();
  const std::uint64_t misses_before = misses.Value();

  BroadcastDecodeCache cache;
  for (int i = 0; i < 6; ++i) {
    const Frame& frame = frames[static_cast<std::size_t>(i % 2)];
    EXPECT_EQ(DecodeModelBroadcast(frame, &cache).params,
              DecodeModelBroadcast(frame).params)
        << "frame " << i;
  }
  EXPECT_EQ(misses.Value() - misses_before, 6u);
  EXPECT_EQ(hits.Value() - hits_before, 0u);
  // A repeat of the last model is a hit.
  DecodeModelBroadcast(frames[1], &cache);
  EXPECT_EQ(hits.Value() - hits_before, 1u);
}

TEST(FrameTest, CachedDecodeNeverHidesACorruptBlock) {
  const compress::Codec* fp16 = &compress::Get("fp16");
  const ModelBroadcastMsg msg{.round = 2, .job_index = 7,
                              .params = ModelParams(0.25f), .client_id = 1};
  const Frame good = EncodeModelBroadcast(msg, fp16);
  BroadcastDecodeCache cache;
  const ModelBroadcastMsg primed = DecodeModelBroadcast(good, &cache);

  // One body byte off from the cached block: parsed in full, rejected.
  // The AFCZ body starts 37 bytes into the block, which starts after the
  // 16 bytes of round and job_index.
  Frame corrupt = good;
  corrupt.payload[16 + 37 + 100] ^= 0x01;
  EXPECT_NE(ThrownMessage([&] { DecodeModelBroadcast(corrupt, &cache); })
                .find("checksum mismatch"),
            std::string::npos);
  // The rejected block did not replace the cache.
  EXPECT_EQ(DecodeModelBroadcast(good, &cache).params.data(),
            primed.params.data());

  // A hit still runs every check after the block.
  Frame trailing = good;
  trailing.payload.push_back(0xAB);
  EXPECT_NE(ThrownMessage([&] { DecodeModelBroadcast(trailing, &cache); })
                .find("trailing bytes"),
            std::string::npos);
  Frame short_id = good;
  short_id.payload.pop_back();
  EXPECT_THROW(DecodeModelBroadcast(short_id, &cache), util::CheckError);
  Frame ack = EncodeAck({1});
  EXPECT_THROW(DecodeModelBroadcast(ack, &cache), util::CheckError);
}

TEST(FrameTest, CompressedUpdateRoundTripsWithFeedback) {
  ClientUpdateMsg msg;
  msg.client_id = 5;
  msg.job_index = 2;
  msg.base_round = 1;
  msg.num_samples = 64;
  std::vector<float> delta(40, 0.001f);
  delta[7] = 3.0f;
  delta[31] = -2.0f;
  msg.delta = std::move(delta);

  compress::FeedbackState feedback;
  const Frame frame =
      EncodeClientUpdate(msg, &compress::Get("topk-delta"), &feedback);
  const ClientUpdateMsg decoded = DecodeClientUpdate(frame);
  EXPECT_EQ(decoded.client_id, msg.client_id);
  EXPECT_EQ(decoded.job_index, msg.job_index);
  ASSERT_EQ(decoded.delta.size(), msg.delta.size());
  // k = 4 of 40: the two spikes survive (exactly — both are fp16 values),
  // ties at 0.001 fill the remaining slots from the lowest index up, and
  // every dropped element lands whole in the residual.
  EXPECT_EQ(decoded.delta[7], 3.0f);
  EXPECT_EQ(decoded.delta[31], -2.0f);
  EXPECT_EQ(decoded.delta[2], 0.0f);
  ASSERT_EQ(feedback.residual.size(), msg.delta.size());
  EXPECT_EQ(feedback.residual[7], 0.0f);
  EXPECT_FLOAT_EQ(feedback.residual[2], 0.001f);
}

TEST(FrameTest, CorruptCompressedPayloadThrows) {
  Frame frame = EncodeClientUpdate(
      {.client_id = 1, .job_index = 2, .base_round = 3, .num_samples = 4,
       .delta = {1.0f, 2.0f, 3.0f, 4.0f}},
      &compress::Get("fp16"));
  frame.payload.back() ^= 0x01;  // body byte → checksum mismatch
  EXPECT_THROW(DecodeClientUpdate(frame), util::CheckError);
}

TEST(FrameTest, DecodesBackToBackFramesIncrementally) {
  std::vector<std::uint8_t> stream = EncodeFrame(EncodeAck({1}));
  const std::vector<std::uint8_t> second =
      EncodeFrame(EncodeModelBroadcast({.round = 2, .job_index = 3,
                                        .params = {4.0f}}));
  stream.insert(stream.end(), second.begin(), second.end());

  Frame out;
  const std::size_t first_len = DecodeFrame(stream, &out);
  ASSERT_GT(first_len, 0u);
  EXPECT_EQ(out.type, MessageType::kAck);
  const std::size_t second_len =
      DecodeFrame(std::span(stream).subspan(first_len), &out);
  EXPECT_EQ(first_len + second_len, stream.size());
  EXPECT_EQ(out.type, MessageType::kModelBroadcast);
}

}  // namespace
}  // namespace net
