/*
 * Timer-based PC sampler, loaded with LD_PRELOAD.
 *
 *   LD_PRELOAD=build/tools/libpcsample.so PCSAMPLE_OUT=/tmp/pc.txt \
 *       build/tools/bopsim --workload 429.mcf --prefetcher bo --cores 4
 *   python3 tools/pcsample_report.py build/tools/bopsim /tmp/pc.txt
 *
 * Every millisecond of CPU time (ITIMER_PROF, summed over threads) the
 * SIGPROF handler records the interrupted instruction pointer. At exit
 * the samples that fall in the main executable's code are written to
 * $PCSAMPLE_OUT as hex offsets from its load base, one per line, ready
 * for `addr2line -e <executable>`. Two trailing lines, `# outside N`
 * and `# dropped N`, count the samples taken in shared libraries or
 * the kernel and those past the buffer's end. Without
 * PCSAMPLE_OUT the library does nothing. It samples the one process it
 * is loaded into: an exec'd child would overwrite the file.
 *
 * Unlike gprof, this needs no instrumented build and attributes time
 * to inlined code by its source line (addr2line -i), which is what an
 * LTO build of the simulator needs.
 */

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

/* 2^21 samples = 35 CPU-minutes at 1 kHz; later samples are dropped. */
#define PCSAMPLE_MAX (1u << 21)

static uintptr_t samples[PCSAMPLE_MAX];
static unsigned taken;
static unsigned dropped;

static void
on_prof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = (const ucontext_t *)ctx;
    uintptr_t pc;
#if defined(__x86_64__)
    pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pc = (uintptr_t)uc->uc_mcontext.pc;
#else
    pc = 0;
#endif
    const unsigned i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < PCSAMPLE_MAX)
        samples[i] = pc;
    else
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
}

/* The main executable's load bias and executable segments. */
struct exe_map
{
    uintptr_t bias;
    uintptr_t lo[8];
    uintptr_t hi[8];
    int n;
};

static int
find_exe(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    struct exe_map *m = (struct exe_map *)data;
    /* The first object reported is the main program. */
    m->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum && m->n < 8; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X))
            continue;
        m->lo[m->n] = info->dlpi_addr + ph->p_vaddr;
        m->hi[m->n] = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
        ++m->n;
    }
    return 1;
}

static void
write_samples(void)
{
    const char *path = getenv("PCSAMPLE_OUT");
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);

    struct exe_map map;
    memset(&map, 0, sizeof map);
    dl_iterate_phdr(find_exe, &map);

    FILE *out = fopen(path, "w");
    if (!out) {
        perror("pcsample: PCSAMPLE_OUT");
        return;
    }
    unsigned n = taken < PCSAMPLE_MAX ? taken : PCSAMPLE_MAX;
    unsigned outside = 0;
    for (unsigned i = 0; i < n; ++i) {
        const uintptr_t pc = samples[i];
        int in_exe = 0;
        for (int s = 0; s < map.n; ++s)
            in_exe |= pc >= map.lo[s] && pc < map.hi[s];
        if (in_exe)
            fprintf(out, "%lx\n", (unsigned long)(pc - map.bias));
        else
            ++outside;
    }
    fprintf(out, "# outside %u\n# dropped %u\n", outside, dropped);
    fclose(out);
}

__attribute__((constructor)) static void
pcsample_start(void)
{
    if (!getenv("PCSAMPLE_OUT"))
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0) {
        perror("pcsample: sigaction");
        return;
    }
    atexit(write_samples);
    struct itimerval every_ms;
    every_ms.it_interval.tv_sec = 0;
    every_ms.it_interval.tv_usec = 1000;
    every_ms.it_value = every_ms.it_interval;
    if (setitimer(ITIMER_PROF, &every_ms, NULL) != 0)
        perror("pcsample: setitimer");
}
