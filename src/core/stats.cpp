#include "core/stats.hpp"

namespace aem {

std::string to_string(const IoStats& s) {
  return "reads=" + std::to_string(s.reads) +
         " writes=" + std::to_string(s.writes);
}

WearStats total_wear(std::span<const ArrayWear> rows) {
  WearStats ws;
  std::uint64_t writes = 0;
  for (const ArrayWear& row : rows) {
    ws.blocks_written += row.blocks_written;
    ws.max_writes = std::max(ws.max_writes, row.max_writes);
    writes += row.writes;
  }
  if (ws.blocks_written != 0)
    ws.mean_writes =
        static_cast<double>(writes) / static_cast<double>(ws.blocks_written);
  return ws;
}

}  // namespace aem
