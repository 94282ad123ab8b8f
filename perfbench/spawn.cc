/**
 * @file
 * perfbench_spawn: run one audit and report what it cost.
 *
 *   perfbench_spawn TIMEOUT_S PROGRAM [ARGS...]
 *
 * Forks PROGRAM as the leader of its own process group (stdio on
 * /dev/null), waits for it with wait4 and prints one line:
 *
 *   <wall_s> <cpu_s> <maxrss_kb> <status>
 *
 * wall_s runs from fork to the return of wait4. cpu_s (user + sys) and
 * maxrss_kb come from wait4's rusage, which covers the child and every
 * descendant it reaped, so fleet workers count. status is the exit
 * code, or -N when signal N ended the child; after TIMEOUT_S seconds
 * the whole group is killed. The group is killed on exit in any case,
 * and as a child subreaper the launcher inherits and reaps any worker
 * the audit left behind, so none outlives it.
 *
 * This launcher is deliberately tiny and does not link glifs: a child's
 * ru_maxrss includes the resident set of the process that forked it, so
 * forking from a large process (a Python interpreter) would inflate it.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace
{

volatile sig_atomic_t childPid = 0;

void
onAlarm(int)
{
    if (childPid > 0)
        ::kill(-childPid, SIGKILL);
}

double
seconds(const timespec &t)
{
    return double(t.tv_sec) + double(t.tv_nsec) * 1e-9;
}

double
seconds(const timeval &t)
{
    return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: perfbench_spawn TIMEOUT_S PROGRAM [ARGS...]\n");
        return 2;
    }
    const unsigned timeout = unsigned(std::strtoul(argv[1], nullptr, 10));
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    struct sigaction sa = {};
    sa.sa_handler = onAlarm;
    ::sigaction(SIGALRM, &sa, nullptr);

    timespec t0{};
    timespec t1{};
    ::clock_gettime(CLOCK_MONOTONIC, &t0);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("perfbench_spawn: fork");
        return 1;
    }
    if (pid == 0) {
        ::setpgid(0, 0);
        const int null = ::open("/dev/null", O_RDWR);
        if (null >= 0) {
            ::dup2(null, 0);
            ::dup2(null, 1);
            ::dup2(null, 2);
        }
        ::execv(argv[2], argv + 2);
        _exit(127);
    }
    ::setpgid(pid, pid); // either side may win the race; both agree
    childPid = pid;
    ::alarm(timeout);

    int status = 0;
    rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            std::perror("perfbench_spawn: wait4");
            ::kill(-pid, SIGKILL);
            return 1;
        }
    }
    ::clock_gettime(CLOCK_MONOTONIC, &t1);
    ::alarm(0);
    ::kill(-pid, SIGKILL);
    while (::wait(nullptr) > 0 || errno == EINTR) {
    }

    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : -WTERMSIG(status);
    std::printf("%.9f %.6f %ld %d\n", seconds(t1) - seconds(t0),
                seconds(ru.ru_utime) + seconds(ru.ru_stime), ru.ru_maxrss,
                code);
    return 0;
}
