#include "fault/recovery.h"

#include <algorithm>
#include <vector>


namespace abrr::fault {

std::uint64_t fp_mix64(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fp_route_term(bgp::Ipv4Addr address, std::uint8_t length,
                            std::uint32_t next_hop,
                            std::uint64_t attrs_hash) {
  std::uint64_t h = fp_mix64(address);
  h = fp_mix64(h ^ length);
  h = fp_mix64(h ^ next_hop);
  return fp_mix64(h ^ attrs_hash);
}

std::uint64_t fp_route_term(const bgp::Route& route) {
  return fp_route_term(route.prefix.address(), route.prefix.length(),
                       route.attrs->next_hop, route.attrs->content_hash);
}

std::uint64_t fp_chain(std::uint64_t fp, bgp::RouterId id,
                       std::uint64_t speaker_sum) {
  fp = fp_mix64(fp ^ fp_mix64(id)) ^ speaker_sum;
  return fp_mix64(fp);
}

RecoveryReport verify_recovery(harness::Testbed& recovered,
                               harness::Testbed& baseline,
                               std::span<const bgp::Ipv4Prefix> prefixes) {
  RecoveryReport report;
  report.equivalence =
      verify::compare_loc_ribs(recovered, baseline, prefixes);
  verify::ForwardingChecker checker{recovered};
  report.forwarding = checker.audit(prefixes);
  return report;
}

std::uint64_t rib_fingerprint(harness::Testbed& testbed) {
  std::vector<bgp::RouterId> ids = testbed.all_ids();
  std::sort(ids.begin(), ids.end());

  std::uint64_t fp = 0;
  for (const bgp::RouterId id : ids) {
    // Commutative per-speaker sum: the digest does not depend on the
    // order LocRib::for_each visits prefixes in.
    std::uint64_t speaker_sum = 0;
    testbed.speaker(id).loc_rib().for_each([&](const bgp::Route& r) {
      speaker_sum += fp_route_term(r);
    });
    fp = fp_chain(fp, id, speaker_sum);
  }
  return fp;
}

}  // namespace abrr::fault
