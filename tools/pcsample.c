/* Sampling profiler, loaded with LD_PRELOAD (Linux). Every millisecond of
 * process CPU time, SIGPROF records the interrupted program counter; at
 * exit the samples and /proc/self/maps go to pcsample.<pid>.out in the
 * working directory. Unlike gprof's -pg, the profiled code is unchanged:
 * no mcount call inflates small functions. tools/flat_profile.py turns
 * the file into a flat profile:
 *
 *   LD_PRELOAD=$PWD/build/libssps_pcsample.so ./prog args...
 *   python3 tools/flat_profile.py pcsample.<pid>.out
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 21)

static uintptr_t samples[MAX_SAMPLES];
static unsigned taken;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
  const uintptr_t pc = 0;
  (void)uc;
#endif
  const unsigned i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = pc;
}

__attribute__((constructor)) static void pcsample_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void pcsample_finish(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "pcsample.%d.out", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) fprintf(out, "map %s", line);
  if (maps != NULL) fclose(maps);
  const unsigned n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  for (unsigned i = 0; i < n; ++i) fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
  fclose(out);
}
