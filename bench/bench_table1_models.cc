/**
 * @file
 * Table 1: per-benchmark least-squares models relating branch
 * prediction to performance — slope, y-intercept, and the 95%
 * prediction interval at 0 MPKI (perfect prediction) — plus the
 * Sections 4.6/6.3 significance story: sample-count escalation in
 * batches of 100 until the t-test rejects, with 20 of the paper's 23
 * benchmarks passing and three lacking MPKI range.
 */

#include <iostream>

#include "bench_common.hh"
#include "interferometry/model.hh"
#include "interferometry/report.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

int
main(int argc, char **argv)
{
    OptionParser opts("bench_table1_models",
                      "Table 1: regression models per benchmark, with "
                      "escalation and significance gating");
    bench::addScaleOptions(opts);
    opts.addInt("max-layouts", 0,
                "escalation cap (0 = 3x the initial batch, like the "
                "paper's 100->300)");
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kModelLayouts);
    u32 max_layouts = static_cast<u32>(opts.getInt("max-layouts"));
    if (max_layouts == 0)
        max_layouts = scale.layouts * 3;

    std::cout << "Table 1 reproduction: initial batch " << scale.layouts
              << " layouts, escalating by " << scale.layouts << " to "
              << max_layouts << " (paper: 100 -> 300)\n\n";

    std::vector<Table1Row> rows;
    int significant = 0, total = 0;
    std::vector<std::string> escalated, failed;

    TableWriter csv;
    csv.addColumn("benchmark", Align::Left);
    csv.addColumn("slope");
    csv.addColumn("intercept");
    csv.addColumn("pi_low");
    csv.addColumn("pi_high");
    csv.addColumn("layouts");
    csv.addColumn("significant");

    for (const auto &entry : workloads::specSuite()) {
        const auto &name = entry.profile.name;
        if (!bench::selected(scale, name))
            continue;
        auto cfg = bench::campaignConfig(scale);
        cfg.escalationStep = scale.layouts;
        cfg.maxLayouts = max_layouts;
        Campaign camp(entry.profile, cfg);
        auto res = camp.run();

        PerformanceModel model(name, res.samples);
        auto row = model.table1Row();
        row.significant = res.significant; // includes the range gate
        rows.push_back(row);

        ++total;
        if (res.significant)
            ++significant;
        else
            failed.push_back(name + (res.enoughMpkiRange
                                         ? " (t-test)"
                                         : " (not enough MPKI range)"));
        if (res.layoutsUsed > scale.layouts)
            escalated.push_back(
                name + strprintf(" (%u)", res.layoutsUsed));

        csv.beginRow();
        csv.cell(name);
        csv.cell(row.slope, "%.5f");
        csv.cell(row.intercept, "%.5f");
        csv.cell(row.perfectLow, "%.5f");
        csv.cell(row.perfectHigh, "%.5f");
        csv.cell(static_cast<long long>(res.layoutsUsed));
        csv.cell(static_cast<long long>(res.significant ? 1 : 0));
    }

    std::cout << significant << " of " << total
              << " benchmarks reject the null hypothesis \"there is no "
                 "correlation\" at p <= 0.05 (paper: 20 of 23)\n";
    if (!escalated.empty()) {
        std::cout << "benchmarks needing escalation:";
        for (const auto &s : escalated)
            std::cout << ' ' << s;
        std::cout << '\n';
    }
    if (!failed.empty()) {
        std::cout << "excluded:";
        for (const auto &s : failed)
            std::cout << ' ' << s;
        std::cout << '\n';
    }
    std::cout << '\n';

    auto table = makeTable1(rows);
    table.print(std::cout);
    std::cout << "\n(Low/High: 95% prediction interval for perfect "
                 "prediction, i.e. 0 MPKI; paper Table 1 slopes run "
                 "0.016-0.041 with outliers 0.373 (zeusmp) and 0.516 "
                 "(GemsFDTD))\n";

    if (!scale.csvPath.empty())
        csv.writeCsv(scale.csvPath);
    bench::finishTelemetry(scale);
    return 0;
}
