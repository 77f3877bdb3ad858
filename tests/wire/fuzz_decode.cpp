// Fuzz harness for the wire decoder.
//
// The entry point is the standard libFuzzer hook, so with clang this
// file builds as a true coverage-guided fuzzer:
//
//   clang++ -std=c++20 -fsanitize=fuzzer,address -DABRR_WIRE_LIBFUZZER
//       tests/wire/fuzz_decode.cpp src/wire/codec.cpp ... -Isrc
//
// (one command line).
//
// The container ships GCC only, so the default build (the `fuzz` CMake
// preset) links the fallback driver below instead: a deterministic
// mutation loop over the checked-in corpus, run under ASan. It is not
// coverage-guided, but the mutators are corpus-aware (length-field
// corruption, attribute splicing, truncation) so it reaches the same
// error paths; the decoder's contract — never read out of bounds, never
// crash, always return a structured error — is what both drivers check.
//
// The driver doubles as the corpus generator: --emit-corpus DIR writes
// the encoder-generated seed set that lives under tests/wire/corpus/.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bgp/route.h"
#include "wire/codec.h"

using abrr::wire::DecodedUpdate;
using abrr::wire::decode_all;
using abrr::wire::decode_message;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in{data, size};

  // Train entry point.
  std::vector<DecodedUpdate> msgs;
  if (const auto err = decode_all(in, msgs)) {
    // Error formatting must be total too.
    const std::string s = err->to_string();
    if (s.empty()) __builtin_trap();
    if (err->offset > size + abrr::wire::kMaxMessageSize) __builtin_trap();
  }

  // Single-message entry point (distinct consumed-length contract).
  DecodedUpdate one;
  std::size_t consumed = 0;
  if (!decode_message(in, one, consumed)) {
    if (consumed < abrr::wire::kHeaderSize || consumed > size) {
      __builtin_trap();  // decoder claimed bytes it never had
    }
  }
  return 0;
}

#ifndef ABRR_WIRE_LIBFUZZER

namespace {

namespace fs = std::filesystem;
using abrr::bgp::Ipv4Prefix;
using abrr::bgp::RouteBuilder;
using abrr::bgp::UpdateMessage;

struct Seed {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

abrr::bgp::Route mk_route(const Ipv4Prefix& p, std::uint32_t id,
                          std::initializer_list<abrr::bgp::Asn> path,
                          std::uint32_t nh) {
  return RouteBuilder{p}
      .path_id(id)
      .as_path(path)
      .origin(abrr::bgp::Origin::kIgp)
      .next_hop(nh)
      .local_pref(100)
      .build();
}

/// The checked-in seed set: every message shape the encoder can emit,
/// plus handcrafted rejections covering the major error families.
std::vector<Seed> make_seeds() {
  std::vector<Seed> seeds;
  abrr::wire::Encoder enc;
  const auto p8 = Ipv4Prefix::parse("10.0.0.0/8");
  const auto p22 = Ipv4Prefix::parse("172.16.4.0/22");

  {
    UpdateMessage m;
    m.keepalive = true;
    seeds.push_back({"valid_keepalive", to_vec(enc.encode(m))});
  }
  {
    UpdateMessage m;
    m.prefix = p8;
    seeds.push_back({"valid_end_of_rib", to_vec(enc.encode(m))});
  }
  {
    UpdateMessage m;
    m.prefix = p8;
    m.full_set = true;
    seeds.push_back({"valid_withdraw_all_sentinel", to_vec(enc.encode(m))});
  }
  {
    UpdateMessage m;
    m.prefix = p22;
    m.withdraw = {4, 9, 12};
    seeds.push_back({"valid_explicit_withdraws", to_vec(enc.encode(m))});
  }
  {
    UpdateMessage m;
    m.prefix = p22;
    m.full_set = true;
    m.announce.push_back(mk_route(p22, 1, {65001, 65002}, 0x0A000001));
    seeds.push_back({"valid_single_announce", to_vec(enc.encode(m))});
  }
  {
    UpdateMessage m;
    m.prefix = p8;
    m.full_set = true;
    m.announce.push_back(mk_route(p8, 1, {65001}, 0x0A000001));
    m.announce.push_back(mk_route(p8, 2, {65002, 65003}, 0x0A000002));
    m.announce.push_back(mk_route(p8, 3, {65001}, 0x0A000001));
    seeds.push_back({"valid_multi_group_train", to_vec(enc.encode(m))});
  }
  {
    // Every attribute the codec models, in one block.
    abrr::bgp::PathAttrs a;
    std::vector<abrr::bgp::Asn> path;
    for (abrr::bgp::Asn i = 0; i < 300; ++i) path.push_back(65000 + i);
    a.as_path = abrr::bgp::AsPath{std::move(path)};  // 2 segments, ext-len
    a.origin = abrr::bgp::Origin::kEgp;
    a.next_hop = 0x0A000001;
    a.local_pref = 200;
    a.med = 40;
    for (std::uint32_t i = 0; i < 70; ++i) a.communities.push_back(i);
    a.originator_id = 77;
    a.cluster_list = {1, 2, 3};
    a.ext_communities = {abrr::bgp::kAbrrReflectedCommunity};
    UpdateMessage m;
    m.prefix = p22;
    m.full_set = true;
    abrr::bgp::Route r;
    r.prefix = p22;
    r.path_id = 5;
    r.attrs = abrr::bgp::make_attrs(std::move(a));
    m.announce.push_back(std::move(r));
    seeds.push_back({"valid_all_attributes", to_vec(enc.encode(m))});
  }
  {
    UpdateMessage m;
    m.prefix = p8;
    m.full_set = true;
    for (std::uint32_t i = 1; i <= 900; ++i) {
      m.announce.push_back(mk_route(p8, i, {65001}, 0x0A000001));
    }
    seeds.push_back({"valid_split_train", to_vec(enc.encode(m))});
  }

  const auto bad = [&seeds](const char* name,
                            std::vector<std::uint8_t> bytes) {
    seeds.push_back({name, std::move(bytes)});
  };
  std::vector<std::uint8_t> b(19, 0xFF);
  b[16] = 0;
  b[17] = 19;
  b[18] = 4;
  b[3] = 0x00;
  bad("bad_marker", b);
  b.assign(19, 0xFF);
  b[16] = 0;
  b[17] = 19;
  b[18] = 9;
  bad("bad_type", b);
  b.assign(19, 0xFF);
  b[16] = 0xFF;
  b[17] = 0xFF;
  b[18] = 2;
  bad("bad_length_huge", b);
  b.assign(23, 0xFF);
  b[16] = 0;
  b[17] = 23;
  b[18] = 2;
  b[19] = 0x00;
  b[20] = 0x7F;  // withdrawn length far beyond the message
  b[21] = 0;
  b[22] = 0;
  bad("bad_withdrawn_overrun", b);
  b.assign(16, 0xFF);
  b.insert(b.end(), {0, 27, 2, 0, 0, 0, 4, 0x40, 1, 1, 0, 0x40, 1, 1, 1});
  bad("bad_duplicate_origin", b);
  b.assign(16, 0xFF);
  b.insert(b.end(), {0, 27, 2, 0, 0, 0, 4, 0x80, 1, 1, 3, 0, 0, 0, 0});
  bad("bad_origin_flags_and_value", b);
  bad("bad_truncated_header", std::vector<std::uint8_t>(7, 0xFF));
  return seeds;
}

void write_corpus(const fs::path& dir) {
  fs::create_directories(dir);
  for (const Seed& s : make_seeds()) {
    std::ofstream out{dir / (s.name + ".bin"),
                      std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(s.bytes.data()),
              static_cast<std::streamsize>(s.bytes.size()));
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", s.name.c_str());
      std::exit(1);
    }
  }
  std::printf("wrote %zu seeds to %s\n", make_seeds().size(),
              dir.string().c_str());
}

std::vector<std::vector<std::uint8_t>> load_corpus(const fs::path& dir) {
  std::vector<std::vector<std::uint8_t>> out;
  if (!fs::is_directory(dir)) return out;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());  // deterministic order
  for (const fs::path& f : files) {
    std::ifstream in{f, std::ios::binary};
    out.emplace_back(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }
  return out;
}

/// Corpus-aware structural mutators: beyond byte noise, corrupt the
/// fields the decoder branches on (message length, attribute lengths)
/// and splice messages so multi-message error paths get hit.
std::vector<std::uint8_t> mutate(
    const std::vector<std::vector<std::uint8_t>>& corpus,
    std::mt19937_64& rng) {
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::uint8_t> v = corpus[pick(corpus.size())];
  const int ops = 1 + static_cast<int>(rng() % 8);
  for (int i = 0; i < ops; ++i) {
    if (v.empty()) v.push_back(static_cast<std::uint8_t>(rng()));
    switch (rng() % 8) {
      case 0:  // flip a byte
        v[pick(v.size())] = static_cast<std::uint8_t>(rng());
        break;
      case 1:  // flip one bit
        v[pick(v.size())] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 2:  // truncate
        v.resize(pick(v.size() + 1));
        break;
      case 3:  // insert a random byte
        v.insert(v.begin() + static_cast<std::ptrdiff_t>(pick(v.size() + 1)),
                 static_cast<std::uint8_t>(rng()));
        break;
      case 4:  // erase a byte
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(pick(v.size())));
        break;
      case 5:  // corrupt the message length field
        if (v.size() >= 18) {
          v[16] = static_cast<std::uint8_t>(rng());
          v[17] = static_cast<std::uint8_t>(rng());
        }
        break;
      case 6: {  // splice another seed's tail onto our head
        const auto& other = corpus[pick(corpus.size())];
        if (!other.empty()) {
          const std::size_t cut = pick(other.size());
          v.insert(v.end(), other.begin() + static_cast<std::ptrdiff_t>(cut),
                   other.end());
        }
        break;
      }
      case 7:  // append a whole seed (multi-message trains)
      default: {
        const auto& other = corpus[pick(corpus.size())];
        v.insert(v.end(), other.begin(), other.end());
        break;
      }
    }
    if (v.size() > 3 * abrr::wire::kMaxMessageSize) {
      v.resize(3 * abrr::wire::kMaxMessageSize);
    }
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iterations = 200'000;
  long max_seconds = 0;
  std::uint64_t seed = 1;
  std::vector<fs::path> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iterations" && i + 1 < argc) {
      iterations = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--max-seconds" && i + 1 < argc) {
      max_seconds = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--emit-corpus" && i + 1 < argc) {
      write_corpus(argv[++i]);
      return 0;
    } else {
      dirs.emplace_back(arg);
    }
  }

  std::vector<std::vector<std::uint8_t>> corpus;
  for (const fs::path& d : dirs) {
    for (auto& bytes : load_corpus(d)) corpus.push_back(std::move(bytes));
  }
  if (corpus.empty()) {
    // No corpus on disk: fall back to the generated seed set so the
    // driver is self-contained.
    for (auto& s : make_seeds()) corpus.push_back(std::move(s.bytes));
  }
  std::printf("fuzz_decode: %zu seeds, %llu iterations, seed %llu\n",
              corpus.size(), static_cast<unsigned long long>(iterations),
              static_cast<unsigned long long>(seed));

  // Seeds themselves must pass.
  for (const auto& s : corpus) LLVMFuzzerTestOneInput(s.data(), s.size());

  const std::time_t t0 = std::time(nullptr);
  std::mt19937_64 rng{seed};
  std::uint64_t done = 0;
  for (; done < iterations; ++done) {
    const std::vector<std::uint8_t> input = mutate(corpus, rng);
    LLVMFuzzerTestOneInput(input.data(), input.size());
    if ((done & 0xFFFF) == 0xFFFF && max_seconds > 0 &&
        std::time(nullptr) - t0 >= max_seconds) {
      ++done;
      break;
    }
  }
  std::printf("fuzz_decode: %llu iterations, 0 crashes\n",
              static_cast<unsigned long long>(done));
  return 0;
}

#endif  // ABRR_WIRE_LIBFUZZER
