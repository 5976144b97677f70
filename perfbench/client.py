"""The benchmark's single client: drives `bopsim --serve` processes.

Every wait has a deadline, and every process started here is killed
and reaped on the way out, whatever happens.
"""

import json
import os
import select
import subprocess
import time

import metrics


class ServeError(RuntimeError):
    pass


def simulator_env(ckpt_dir=None):
    """The environment of every simulator process the benchmark starts.

    The caller's environment without any BOP_* setting (thread count,
    fast-forward, fault injection, retries, checkpoint directory, ...),
    so the figures depend on the code and the job lines, not on the
    shell. BOP_CKPT_DIR is set only when @p ckpt_dir is given.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("BOP_")}
    if ckpt_dir:
        env["BOP_CKPT_DIR"] = ckpt_dir
    return env


def encode(point):
    """A job line as the bytes written to the server."""
    return point.line().encode() + b"\n"


class Serve:
    """One `bopsim --serve` process with its stdin/stdout pipes."""

    def __init__(self, exe, workers, log, journal=None, ckpt_dir=None):
        cmd = [exe, "--serve", "--jobs", str(workers)]
        if journal:
            cmd += ["--journal", journal]
        env = simulator_env(ckpt_dir)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=log,
                                     env=env)
        self.buffer = b""
        self.read_at = None

    def send(self, data):
        """Write already-encoded job lines (see encode())."""
        self.proc.stdin.write(data)
        self.proc.stdin.flush()

    def answer(self, deadline):
        """Next terminal record (run or error) on the response stream.

        Returns (record, received): `received` is the perf_counter()
        reading taken when the read that completed the record's line
        returned, before any parsing. Every complete line in the buffer
        was completed by the latest read, since reading happens only
        once the buffer holds no complete line.
        """
        fd = self.proc.stdout.fileno()
        while True:
            newline = self.buffer.find(b"\n")
            if newline >= 0:
                raw = self.buffer[:newline]
                self.buffer = self.buffer[newline + 1:]
                try:
                    obj = json.loads(raw)
                except ValueError:
                    continue
                if metrics.is_terminal(obj):
                    return obj, self.read_at
                continue
            left = deadline - time.perf_counter()
            if left <= 0:
                raise ServeError("serve process did not answer in time")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                self.read_at = time.perf_counter()
                if not chunk:
                    raise ServeError("serve process exited early")
                self.buffer += chunk

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise ServeError("no VmHWM for the serve process")

    def close(self, timeout):
        """End the input, let the server drain, reap it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=timeout)
        finally:
            self.kill()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


def closed_loop(serve, points, outstanding, deadline, idle=None):
    """Keep `outstanding` lines in flight until every point is answered.

    Returns (answers, idle_s): one (point, latency_s, record) per point,
    in submission order, and the seconds spent in `idle`. A latency runs
    from just before the encoded line is written to the read that
    completed its record, so the client's own encoding and parsing are
    outside it. job_index is the ordinal of accepted lines, which is the
    index into `points` since every generated line is well formed. With
    one line outstanding, `idle` (if given) is called after each answer,
    while nothing is in flight, before the next line goes out.
    """
    sent = {}
    answers = [None] * len(points)
    idle_s = 0.0
    next_line = 0

    def submit():
        nonlocal next_line
        data = encode(points[next_line])
        sent[next_line] = time.perf_counter()
        serve.send(data)
        next_line += 1

    while next_line < min(outstanding, len(points)):
        submit()
    for _ in range(len(points)):
        record, received = serve.answer(deadline)
        idx = record["job_index"]
        if not 0 <= idx < len(points) or answers[idx] is not None:
            raise ServeError("unexpected job_index %r" % idx)
        answers[idx] = (points[idx], received - sent[idx], record)
        if idle and outstanding == 1:
            before = time.perf_counter()
            idle()
            idle_s += time.perf_counter() - before
        if next_line < len(points):
            submit()
    return answers, idle_s

