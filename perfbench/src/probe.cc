/**
 * @file
 * Unloaded 16 B probe: one process on a single-rack, one-CN, one-MN
 * cluster issues synchronous 16 B reads, then 16 B writes, one at a
 * time, to a populated page (no page faults), as the paper's Fig. 7
 * measures. The paper reports a 2.5 us median and 3.2 us p99.
 */

#include <algorithm>

#include "bench.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

constexpr std::uint32_t kSamples = 10000;

} // namespace

void
runProbe(std::uint64_t seed, std::map<std::string, double> &out)
{
    using namespace clio;
    ModelConfig cfg = ModelConfig::prototype();
    cfg.seed = seed;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr base =
        client.ralloc(4 * MiB, kPermReadWrite, /*populate=*/true).value_or(0);
    Rng rng(streamSeed(seed, 0x9b0be));
    std::uint8_t buf[16] = {};
    EventQueue &eq = cluster.eventQueue();
    for (const bool is_write : {false, true}) {
        std::vector<Tick> lat;
        lat.reserve(kSamples);
        for (std::uint32_t i = 0; i < kSamples; i++) {
            const VirtAddr addr = base + rng.uniformInt(4096) * 16;
            const Tick t0 = eq.now();
            const Status st = is_write ? client.rwrite(addr, buf, 16)
                                       : client.rread(addr, buf, 16);
            if (st != Status::kOk)
                continue; // a failed probe op leaves no sample
            lat.push_back(eq.now() - t0);
        }
        const std::string op = is_write ? "probe.write16" : "probe.read16";
        std::sort(lat.begin(), lat.end());
        out[op + "_p50_us"] = percentileUs(lat, 0.50);
        out[op + "_p99_us"] = percentileUs(lat, 0.99);
    }
}

} // namespace perfbench
