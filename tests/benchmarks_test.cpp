// Tests for the benchmark generators: structure as the paper states it.
#include <gtest/gtest.h>

#include "oracle/placement_checks.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

TEST(Benchmarks, AllNamesBuild) {
    for (const auto& name : benchmark_names()) {
        const DesignSpec spec = make_benchmark(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_GT(spec.cores.num_cores(), 0) << name;
        EXPECT_GT(spec.comm.num_flows(), 0) << name;
        EXPECT_TRUE(oracle::placement_is_legal(spec.cores)) << name;
    }
    EXPECT_THROW(make_benchmark("nope"), std::invalid_argument);
}

TEST(Benchmarks, CoreCountsMatchPaper) {
    EXPECT_EQ(make_d26_media().cores.num_cores(), 26);
    EXPECT_EQ(make_d36(4).cores.num_cores(), 36);
    EXPECT_EQ(make_d36(6).cores.num_cores(), 36);
    EXPECT_EQ(make_d36(8).cores.num_cores(), 36);
    EXPECT_EQ(make_d35_bot().cores.num_cores(), 35);
    EXPECT_EQ(make_d65_pipe().cores.num_cores(), 65);
    EXPECT_EQ(make_d38_tvopd().cores.num_cores(), 38);
}

TEST(Benchmarks, D26HasThreeLayers) {
    EXPECT_EQ(make_d26_media().cores.num_layers(), 3);
}

TEST(Benchmarks, D36FlowCountsAndConstantBandwidth) {
    // 18 processors x k request flows (plus paired responses); the total
    // request bandwidth is identical across the three variants.
    double total4 = 0.0;
    for (int k : {4, 6, 8}) {
        const DesignSpec spec = make_d36(k);
        int requests = 0;
        double total = 0.0;
        for (const auto& f : spec.comm.flows()) {
            if (f.type == FlowType::Request) {
                ++requests;
                total += f.bw_mbps;
            }
        }
        EXPECT_EQ(requests, 18 * k);
        if (k == 4)
            total4 = total;
        else
            EXPECT_NEAR(total, total4, 1e-6);
    }
    EXPECT_THROW(make_d36(5), std::invalid_argument);
}

TEST(Benchmarks, D36EveryProcessorReachesDistinctMemories) {
    const DesignSpec spec = make_d36(6);
    for (int p = 0; p < 18; ++p) {
        const int pid = spec.cores.find(format("p%d", p));
        std::set<int> dests;
        for (const auto& f : spec.comm.flows())
            if (f.src == pid && f.type == FlowType::Request)
                dests.insert(f.dst);
        EXPECT_EQ(dests.size(), 6u) << "p" << p;
    }
}

TEST(Benchmarks, D35BottleneckStructure) {
    const DesignSpec spec = make_d35_bot();
    // Every processor hits its private memory and all three shared ones.
    for (int i = 0; i < 16; ++i) {
        const int p = spec.cores.find(format("p%d", i));
        const int pm = spec.cores.find("pm" + std::to_string(i));
        ASSERT_GE(p, 0);
        ASSERT_GE(pm, 0);
        bool has_private = false;
        int shared = 0;
        for (const auto& f : spec.comm.flows()) {
            if (f.src != p || f.type != FlowType::Request) continue;
            if (f.dst == pm) has_private = true;
            if (spec.cores.core(f.dst).name.starts_with("sm")) ++shared;
        }
        EXPECT_TRUE(has_private);
        EXPECT_EQ(shared, 3);
    }
}

TEST(Benchmarks, D65IsAPipeline) {
    const DesignSpec spec = make_d65_pipe();
    int request_flows = 0;
    for (const auto& f : spec.comm.flows()) {
        EXPECT_EQ(f.type, FlowType::Request);
        ++request_flows;
    }
    EXPECT_EQ(request_flows, 64);  // c_i -> c_{i+1}
    // Consecutive stages are mostly on the same layer (snake mapping).
    int inter_layer = 0;
    for (const auto& f : spec.comm.flows())
        if (spec.cores.core(f.src).layer != spec.cores.core(f.dst).layer)
            ++inter_layer;
    EXPECT_LE(inter_layer, 4);
}

TEST(Benchmarks, HeavyTrafficCrossesLayersInD36) {
    // The paper maps highly communicating cores above one another; in the
    // memory-on-logic D_36 designs every request flow crosses a boundary.
    const DesignSpec spec = make_d36(4);
    for (const auto& f : spec.comm.flows())
        EXPECT_NE(spec.cores.core(f.src).layer, spec.cores.core(f.dst).layer);
}

TEST(Benchmarks, PerCoreBandwidthFitsLinkCapacity) {
    // 32-bit links at 400 MHz carry 1600 MB/s; no core may aggregate more
    // per direction or its NI link saturates before synthesis starts.
    for (const auto& name : benchmark_names()) {
        const DesignSpec spec = make_benchmark(name);
        std::vector<double> out(spec.cores.num_cores(), 0.0);
        std::vector<double> in(spec.cores.num_cores(), 0.0);
        for (const auto& f : spec.comm.flows()) {
            out[f.src] += f.bw_mbps;
            in[f.dst] += f.bw_mbps;
        }
        for (int c = 0; c < spec.cores.num_cores(); ++c) {
            EXPECT_LE(out[c], 1600.0) << name << " core "
                                      << spec.cores.core(c).name;
            EXPECT_LE(in[c], 1600.0) << name << " core "
                                     << spec.cores.core(c).name;
        }
    }
}

TEST(Benchmarks, RowpackIsDeterministicAndLegal) {
    DesignSpec a = make_d26_media();
    DesignSpec b = make_d26_media();
    for (int c = 0; c < a.cores.num_cores(); ++c) {
        EXPECT_EQ(a.cores.core(c).position, b.cores.core(c).position);
    }
    EXPECT_TRUE(oracle::placement_is_legal(a.cores));
}

TEST(Benchmarks, To2dFlattensAndStaysLegal) {
    const DesignSpec spec = make_d35_bot();
    const DesignSpec flat = to_2d(spec);
    EXPECT_EQ(flat.cores.num_layers(), 1);
    EXPECT_EQ(flat.comm.num_flows(), spec.comm.num_flows());
    EXPECT_TRUE(oracle::placement_is_legal(flat.cores));
    // 2-D die area should be about the sum of the 3-D layers.
    double area3d = 0.0;
    for (int ly = 0; ly < spec.cores.num_layers(); ++ly)
        area3d += oracle::layer_area(spec.cores, ly);
    EXPECT_NEAR(oracle::layer_area(flat.cores, 0), area3d, 1e-9);
}

}  // namespace
}  // namespace sunfloor
