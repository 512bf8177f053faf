// §3.1: the δ calibration experiment and head-prediction accuracy.
//
// Paper: "the δ value is less than 15 for a Seagate ST41601N drive" and
// "less than one microsecond is needed to take a timestamp and compute
// the prediction formula" (that second claim is measured by
// bench_micro's google-benchmark suite; here we run the disk experiment).

#include <cmath>

#include "harness.hpp"

int main() {
  using namespace trail::bench;
  namespace sim = trail::sim;
  namespace disk = trail::disk;
  namespace core = trail::core;
  namespace io = trail::io;

  for (const char* which : {"ST41601N", "WD-Caviar-10G", "fixed-head-drum"}) {
    disk::DiskProfile profile = std::string(which) == "ST41601N" ? disk::st41601n()
                                : std::string(which) == "WD-Caviar-10G"
                                    ? disk::wd_caviar_10g()
                                    : disk::fixed_head_drum();
    sim::Simulator simulator;
    disk::DiskDevice device(simulator, profile);
    const auto result = core::DeltaCalibrator::run(simulator, device, /*probe_track=*/1);

    print_heading(std::string("delta calibration: ") + which);
    std::printf("rotation %.3f ms | sector %.1f us | command overhead %.3f ms\n",
                profile.rotation_time().ms(), profile.sector_time(1).us(),
                profile.command_overhead.ms());
    std::printf("calibrated delta = %u sectors (%.3f ms)%s\n", result.delta_sectors,
                result.delta_time.ms(),
                std::string(which) == "ST41601N" ? "   [paper: < 15]" : "");
    sim::TablePrinter table({"delta probed", "write latency (ms)", "verdict"});
    for (std::size_t d = 0; d < result.probe_latency.size() && d <= result.delta_sectors + 4;
         ++d) {
      const double ms = result.probe_latency[d].ms();
      table.add_row({sim::TablePrinter::fmt_int(static_cast<std::int64_t>(d)),
                     sim::TablePrinter::fmt(ms, 2),
                     ms > profile.rotation_time().ms() / 2 ? "full rotation" : "ok"});
    }
    table.print();
  }

  // Prediction accuracy under spindle-speed drift: how far the predicted
  // sector drifts from the true head position over idle time (the reason
  // for §3.1's periodic repositioning).
  print_heading("prediction drift vs idle time (ST41601N, 200 ppm spindle error)");
  {
    disk::DiskProfile p = disk::st41601n();
    p.rotation_drift_ppm = 200.0;
    sim::Simulator simulator;
    disk::DiskDevice device(simulator, p);
    io::HeadPredictor predictor(device.geometry(), p.rotation_time());
    disk::SectorBuf buf{};
    bool done = false;
    device.read(device.geometry().first_lba_of_track(10), 1, buf, [&] { done = true; });
    while (!done) simulator.step();
    predictor.set_reference(simulator.now(), 10, 0);

    sim::TablePrinter table({"idle time", "error (sectors)", "error (fraction of track)"});
    const std::uint32_t spt = device.geometry().spt_of_track(10);
    for (const auto idle_ms : {10, 100, 500, 1000, 5000, 20000}) {
      const sim::TimePoint t = simulator.now() + sim::millis(idle_ms);
      double err = predictor.angle_at(t) - device.angle_at(t);
      err -= std::floor(err);
      if (err > 0.5) err -= 1.0;
      table.add_row({std::to_string(idle_ms) + " ms",
                     sim::TablePrinter::fmt(std::abs(err) * spt, 2),
                     sim::TablePrinter::fmt(std::abs(err), 4)});
    }
    table.print();
    std::printf("(the driver's idle repositioning default period is 500 ms)\n");
  }
  return 0;
}
