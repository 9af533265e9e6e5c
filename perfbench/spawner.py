"""Launches and reaps the benchmark's child processes, one at a time.

Run as ``python3 -S -I spawner.py REFERENCE_S`` by ``run.py``.  On Linux a
child's peak RSS (``ru_maxrss``) is at least the RSS of the process that
spawned it, so the spawning is done here, in an interpreter that imports next
to nothing, and not in ``run.py``.

Protocol, one request per line on stdin, fields separated by NUL bytes:
``deadline_s, stdout_path, stderr_path, program, arg...``.  The child gets
the spawner's environment, stdin from /dev/null and its own session.  The
deadline is in reference seconds: a child still running
``deadline_s * probe_before_s / REFERENCE_S`` after launch is killed with its
process group.  One reply line per request on stdout: ``scaled_latency_s
latency_s exit_code timed_out maxrss_kb spawner_rss_kb probe_before_s
probe_after_s`` (exit code -1 when killed).

The machine's speed drifts, so each latency is also given scaled to the
speed at which ``probe()`` takes ``REFERENCE_S``.  The spawner and its
children stay on one vCPU.  The spawner times ``probe()`` just after each
exit, just before a launch that does not follow an exit closely, and every
``SEGMENT_S`` seconds in between, with the child's process group stopped
meanwhile.
"""

import os
import select
import signal
import sys
import time

# a running child is paused for a probe after every SEGMENT_S seconds
SEGMENT_S = 0.2
# an exit probe this recent also serves as the next launch's probe
RECENT_S = 0.1
PROBE_ARGV = [sys.executable, "-S", "-I", "-c", "pass"]
PROBE_IO = [
    (os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)
]


def rss_kb():
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def probe():
    """Seconds to start and stop a bare interpreter: the machine's current
    speed at the kind of work a short request does."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, PROBE_ARGV, os.environ, file_actions=PROBE_IO)
    os.waitpid(pid, 0)
    return time.perf_counter() - start


def pause(pid):
    """Stop the child's process group; False if the child exited first."""
    os.killpg(pid, signal.SIGSTOP)
    info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    if info.si_code != os.CLD_STOPPED:
        return False
    os.waitid(os.P_PID, pid, os.WSTOPPED)  # consume the stop report
    return True


def run(deadline, out_path, err_path, argv, reference, last):
    """Run one child; returns its reply line and the probe taken at exit.

    The latency excludes the pauses.  Its scaled form sums each running
    segment's time times ``reference`` over the mean of the probes at the
    segment's two ends.  ``last`` is the previous exit's (time, probe); it
    serves as this launch's probe when it is recent.
    """
    own_kb = rss_kb()
    recent = last is not None and time.perf_counter() - last[0] < RECENT_S
    before = last[1] if recent else probe()
    deadline *= before / reference
    out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_fd, 1),
        (os.POSIX_SPAWN_DUP2, err_fd, 2),
    ]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions, setsid=True)
    finally:
        os.close(out_fd)
        os.close(err_fd)
    pidfd = os.pidfd_open(pid)
    paused = scaled = 0.0
    segment_start, segment_probe = start, before
    killed = False
    try:
        while True:
            remaining = deadline - (time.perf_counter() - start - paused)
            if remaining <= 0:
                os.killpg(pid, signal.SIGKILL)
                killed = True
                break
            if select.select([pidfd], [], [], min(SEGMENT_S, remaining))[0]:
                break
            if remaining <= SEGMENT_S or not pause(pid):
                continue
            stopped = time.perf_counter()
            sample = probe()
            scaled += (stopped - segment_start) * 2 * reference / (segment_probe + sample)
            os.killpg(pid, signal.SIGCONT)
            segment_start, segment_probe = time.perf_counter(), sample
            paused += segment_start - stopped
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
    finally:
        os.close(pidfd)
    after = probe()
    last = (time.perf_counter(), after)
    scaled += (end - segment_start) * 2 * reference / (segment_probe + after)
    code = -1 if killed else os.waitstatus_to_exitcode(status)
    reply = (f"{scaled!r} {end - start - paused!r} {code} {int(killed)} "
             f"{usage.ru_maxrss} {own_kb} {before!r} {after!r}\n")
    return reply, last


def main():
    reference = float(sys.argv[1])
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    last = None
    for line in sys.stdin.buffer:
        fields = [f.decode() for f in line.rstrip(b"\n").split(b"\0")]
        reply, last = run(float(fields[0]), fields[1], fields[2], fields[3:], reference, last)
        sys.stdout.write(reply)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
