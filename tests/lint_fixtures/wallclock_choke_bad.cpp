// Fixture: wall-clock reads beside the obs choke point — must fire
// wallclock-choke-point (linted at a src/media path, which the
// determinism rules do not cover).
#include <sys/time.h>
#include <time.h>

#include <chrono>

namespace vgbl {

long long steady_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

long long system_now() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

long long fine_now() {
  return std::chrono::high_resolution_clock::now().time_since_epoch().count();
}

long long posix_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec;
}

long long legacy_now() {
  timeval tv{};
  gettimeofday(&tv, nullptr);
  return tv.tv_sec;
}

}  // namespace vgbl
