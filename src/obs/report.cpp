#include "obs/report.hpp"

#include <cstdio>
#include <sstream>

namespace depprof::obs {
namespace {

std::string fmt_sec(double sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", sec);
  return buf;
}

}  // namespace

std::string snapshot_csv(const PipelineSnapshot& snap) {
  std::ostringstream os;
  os << "stage,events,chunks,stalls,queue_depth_hwm,busy_sec,cpu_sec,"
        "idle_sec,idle_cpu_sec,parked_sec,parks,block_sec,wakes,"
        "migrations,rounds,kernel_batches,prefetches,events_deduped,"
        "bytes_on_wire,events_sampled_out,bursts,"
        "sampled_overhead_ppm,races_confirmed,races_unconfirmed,"
        "races_lock_suppressed,resident_pages,hugepage_fallbacks\n";
  for (const auto& s : snap.stages) {
    os << s.stage << ',' << s.events << ',' << s.chunks << ',' << s.stalls
       << ',' << s.queue_depth_hwm << ',' << fmt_sec(s.busy_sec()) << ','
       << fmt_sec(s.cpu_sec()) << ',' << fmt_sec(s.idle_sec()) << ','
       << fmt_sec(s.idle_cpu_sec()) << ',' << fmt_sec(s.parked_sec()) << ','
       << s.parks << ',' << fmt_sec(s.block_sec()) << ',' << s.wakes << ','
       << s.migrations << ',' << s.rounds << ',' << s.kernel_batches << ','
       << s.prefetches << ',' << s.events_deduped << ',' << s.bytes_on_wire
       << ',' << s.events_sampled_out << ','
       << s.bursts << ',' << s.sampled_overhead_ppm << ','
       << s.races_confirmed << ',' << s.races_unconfirmed << ','
       << s.races_lock_suppressed << ',' << s.resident_pages << ','
       << s.hugepage_fallbacks << '\n';
  }
  return os.str();
}

std::string snapshot_json(const PipelineSnapshot& snap) {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const auto& s : snap.stages) {
    if (!first) os << ',';
    first = false;
    os << "{\"stage\":\"" << s.stage << "\",\"events\":" << s.events
       << ",\"chunks\":" << s.chunks << ",\"stalls\":" << s.stalls
       << ",\"queue_depth_hwm\":" << s.queue_depth_hwm
       << ",\"busy_sec\":" << fmt_sec(s.busy_sec())
       << ",\"cpu_sec\":" << fmt_sec(s.cpu_sec())
       << ",\"idle_sec\":" << fmt_sec(s.idle_sec())
       << ",\"idle_cpu_sec\":" << fmt_sec(s.idle_cpu_sec())
       << ",\"parked_sec\":" << fmt_sec(s.parked_sec())
       << ",\"parks\":" << s.parks
       << ",\"block_sec\":" << fmt_sec(s.block_sec())
       << ",\"wakes\":" << s.wakes
       << ",\"migrations\":" << s.migrations << ",\"rounds\":" << s.rounds
       << ",\"kernel_batches\":" << s.kernel_batches
       << ",\"prefetches\":" << s.prefetches
       << ",\"events_deduped\":" << s.events_deduped
       << ",\"bytes_on_wire\":" << s.bytes_on_wire
       << ",\"events_sampled_out\":" << s.events_sampled_out
       << ",\"bursts\":" << s.bursts
       << ",\"sampled_overhead_ppm\":" << s.sampled_overhead_ppm
       << ",\"races_confirmed\":" << s.races_confirmed
       << ",\"races_unconfirmed\":" << s.races_unconfirmed
       << ",\"races_lock_suppressed\":" << s.races_lock_suppressed
       << ",\"resident_pages\":" << s.resident_pages
       << ",\"hugepage_fallbacks\":" << s.hugepage_fallbacks << '}';
  }
  os << ']';
  return os.str();
}

std::string snapshot_text(const PipelineSnapshot& snap) {
  std::ostringstream os;
  char line[384];
  std::snprintf(line, sizeof(line),
                "%-11s %12s %10s %8s %10s %10s %10s %10s %10s %9s %7s %9s %6s "
                "%6s %6s %8s %10s %10s %12s %10s %7s %8s %7s %7s %7s %9s %9s\n",
                "stage", "events", "chunks", "stalls", "depth_hwm", "busy_s",
                "cpu_s", "idle_s", "idlecpu_s", "parked_s", "parks", "block_s",
                "wakes", "moved", "rounds", "batches", "prefetch", "deduped",
                "wire_bytes", "sampled", "bursts", "ovh_ppm",
                "races", "unconf", "locksup", "res_pages", "hp_fallbk");
  os << line;
  for (const auto& s : snap.stages) {
    std::snprintf(line, sizeof(line),
                  "%-11s %12llu %10llu %8llu %10llu %10.4f %10.4f %10.4f "
                  "%10.4f %9.4f %7llu %9.4f %6llu %6llu %6llu %8llu %10llu "
                  "%10llu %12llu %10llu %7llu %8llu %7llu %7llu %7llu %9llu "
                  "%9llu\n",
                  s.stage.c_str(), static_cast<unsigned long long>(s.events),
                  static_cast<unsigned long long>(s.chunks),
                  static_cast<unsigned long long>(s.stalls),
                  static_cast<unsigned long long>(s.queue_depth_hwm),
                  s.busy_sec(), s.cpu_sec(), s.idle_sec(), s.idle_cpu_sec(),
                  s.parked_sec(), static_cast<unsigned long long>(s.parks),
                  s.block_sec(), static_cast<unsigned long long>(s.wakes),
                  static_cast<unsigned long long>(s.migrations),
                  static_cast<unsigned long long>(s.rounds),
                  static_cast<unsigned long long>(s.kernel_batches),
                  static_cast<unsigned long long>(s.prefetches),
                  static_cast<unsigned long long>(s.events_deduped),
                  static_cast<unsigned long long>(s.bytes_on_wire),
                  static_cast<unsigned long long>(s.events_sampled_out),
                  static_cast<unsigned long long>(s.bursts),
                  static_cast<unsigned long long>(s.sampled_overhead_ppm),
                  static_cast<unsigned long long>(s.races_confirmed),
                  static_cast<unsigned long long>(s.races_unconfirmed),
                  static_cast<unsigned long long>(s.races_lock_suppressed),
                  static_cast<unsigned long long>(s.resident_pages),
                  static_cast<unsigned long long>(s.hugepage_fallbacks));
    os << line;
  }
  return os.str();
}

}  // namespace depprof::obs
