// Golden fixture for the banned-api rule. aride_lint_test.cc asserts the
// exact lines that fire — keep line numbers stable when editing.
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>

void FixtureBannedApi() {
  assert(1 > 0);
  std::printf("no\n");
  std::cout << 1;
  std::cerr << 2;
  (void)std::rand();
  srand(7);
  auto t = std::chrono::system_clock::now();
  (void)t;
  char buf[8];
  std::snprintf(buf, sizeof(buf), "ok");  // bounded formatting: allowed
  std::printf("ok\n");  // NOLINT-ARIDE(banned-api)
  // NOLINTNEXTLINE-ARIDE(banned-api)
  std::cout << 3;
  (void)std::getenv("HOME");
}
