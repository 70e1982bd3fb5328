"""Helpers for the MATADOR benchmark: statistics, child processes timed with
wait4, and an NDJSON client that drives `matador serve` through real pipes.

Everything here is standard library only so the benchmark runs wherever the
C++ toolchain does.
"""

import array
import gc
import itertools
import json
import os
import re
import selectors
import statistics
import subprocess
import time

# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it (p in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = -(-len(ordered) * p // 100)  # ceil without float error
    return ordered[max(1, int(rank)) - 1]


def median(values):
    return statistics.median(values)


def iqr(values):
    """Distance between the first and third quartile, as
    statistics.quantiles(values, n=4) gives them (0 for one sample)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def per_window(received, latencies, start, end, width=1.0):
    """Split replies into consecutive `width`-second windows of their
    arrival time (`received` in ascending order), keeping only windows
    wholly inside [start, end].  Returns one (replies/s, p50, p90, replies)
    tuple per window with at least two replies; the rate runs from the
    window's first reply to its last."""
    windows = []
    i, n = 0, len(received)
    while i < n:
        k = (received[i] - start) // width
        j = i + 1
        while j < n and (received[j] - start) // width == k:
            j += 1
        span = received[j - 1] - received[i]
        if k >= 0 and start + (k + 1) * width <= end and span > 0:
            lats = latencies[i:j]
            windows.append(((j - i - 1) / span, percentile(lats, 50),
                            percentile(lats, 90), j - i))
        i = j
    return windows


def summary(values):
    """Median, quartile spread and sample count of one metric's samples."""
    return {"median": median(values), "iqr": iqr(values), "n": len(values),
            "min": min(values), "max": max(values)}


# --------------------------------------------------------------------------
# Request streams
# --------------------------------------------------------------------------


def request_line(i, example):
    """NDJSON predict request i for one (bits, label) example."""
    bits, label = example
    return b'{"id":%d,"x":"%s","label":%d}\n' % (i, bits, label)


def match_in_order(lines, golden, first_id=0):
    """Check replies against the request stream they answer.

    `matador serve` answers strictly in request order, so reply k must carry
    id first_id + k, be ok, and predict golden[(first_id + k) % len(golden)].
    Returns (ok_count, failures) where failures lists (index, reason) for
    every reply that breaks the contract.
    """
    ok = 0
    failures = []
    for k, line in enumerate(lines):
        want = first_id + k
        try:
            reply = json.loads(line)
        except ValueError:
            failures.append((k, "unparsable reply"))
            continue
        if reply.get("id") != want:
            failures.append((k, "id %r where %d was due" % (reply.get("id"), want)))
        elif reply.get("ok") is not True:
            failures.append((k, "error %s" % reply.get("error")))
        elif reply.get("prediction") != golden[want % len(golden)]:
            failures.append((k, "prediction %r != offline %d"
                             % (reply.get("prediction"), golden[want % len(golden)])))
        else:
            ok += 1
    return ok, failures


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


def vm_hwm_mb(pid):
    """Peak RSS (VmHWM) of a running process since its exec, in MB, or None
    once it has exited."""
    try:
        with open("/proc/%d/status" % pid, "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return None


def wait_rusage(proc, deadline, peak_mb=None):
    """Reap `proc` with wait4 before `deadline` (perf_counter time), killing
    it when the deadline passes.  Returns (exit_code, peak_rss_mb, killed).

    The peak is the last VmHWM read while polling, or `peak_mb` if none
    was.  wait4's ru_maxrss is only the fallback: it also counts the RSS
    the child shared with this process before its exec, so a client that
    has grown would set the figure."""
    killed = False
    while True:
        peak_mb = vm_hwm_mb(proc.pid) or peak_mb
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline and not killed:
            proc.kill()
            killed = True
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if peak_mb is None:
        peak_mb = usage.ru_maxrss / 1024.0
    return proc.returncode, peak_mb, killed


def run_timed(cmd, out_path, timeout):
    """Run cmd with stdout+stderr to out_path.  Returns (exit_code, wall_s,
    peak_rss_mb, output_text); a run past `timeout` is killed."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        code, rss, killed = wait_rusage(proc, start + timeout)
        wall = time.perf_counter() - start
    with open(out_path, "r", errors="replace") as f:
        text = f.read()
    if killed:
        code = code if code else -9
    return code, wall, rss, text


STAGE_ROW = re.compile(r"^(train|analyze|architect|generate|verify|report|total)"
                       r"\s+(\S+)\s+([0-9.]+)", re.M)


def parse_flow_output(text):
    """The numbers `matador flow --timing` prints: stage walls (s), test
    accuracy (%), LUTs, latency cycles and the prove verdict."""
    stages = {m.group(1): (m.group(2), float(m.group(3)) / 1000.0)
              for m in STAGE_ROW.finditer(text)}
    acc = re.search(r"^accuracy: train [0-9.]+%\s+test ([0-9.]+)%", text, re.M)
    luts = re.search(r"^resources: (\d+) LUTs", text, re.M)
    lat = re.search(r"^performance: latency (\d+) cycles", text, re.M)
    prove = re.search(r"prove: (\d+)/(\d+) unsat", text)
    return {
        "stages": stages,
        "test_accuracy_pct": float(acc.group(1)) if acc else None,
        "luts": int(luts.group(1)) if luts else None,
        "latency_cycles": int(lat.group(1)) if lat else None,
        "prove": (int(prove.group(1)), int(prove.group(2))) if prove else None,
    }


# --------------------------------------------------------------------------
# The NDJSON serve client
# --------------------------------------------------------------------------


class ServeProcess:
    """`matador serve` on a pipe pair; set-up time runs from spawn until the
    daemon's `ready` line on stderr."""

    def __init__(self, cmd, ready_timeout):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, bufsize=0)
        self.setup_s = None
        self.peak_mb = None
        self._stderr = b""
        deadline = self.start + ready_timeout
        err_fd = self.proc.stderr.fileno()
        os.set_blocking(err_fd, False)
        with selectors.DefaultSelector() as sel:
            sel.register(err_fd, selectors.EVENT_READ)
            while b"ready" not in self._stderr:
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(left):
                    break
                chunk = os.read(err_fd, 65536)
                if not chunk:
                    break
                self._stderr += chunk
        if b"ready" in self._stderr:
            self.setup_s = time.perf_counter() - self.start

    def close_stdin(self):
        """End the request stream.  The server's peak RSS is read first,
        while the server is surely still running."""
        self.peak_mb = vm_hwm_mb(self.proc.pid)
        try:
            self.proc.stdin.close()
        except OSError:
            pass

    def close(self, deadline):
        """Close stdin if still open, then reap.  Returns (exit_code,
        peak_rss_mb)."""
        if not self.proc.stdin.closed:
            self.close_stdin()
        code, rss, _ = wait_rusage(self.proc, deadline, self.peak_mb)
        for f in (self.proc.stdout, self.proc.stderr):
            try:
                f.close()
            except OSError:
                pass
        return code, rss


class ServeClient:
    """One pipe, one thread, closed loop: keeps up to `window` requests
    outstanding, writing request lines as replies free slots and reading
    replies as they arrive.  `sent[i]` is when request i's last byte entered
    the pipe; latency runs from there to the read that brought its reply
    line, so it leaves out time spent inside the client.

    With the window always full, requests wait behind those already in the
    pipe and in the server's window, so latency is about that backlog
    divided by the reply rate (Little's law).

    The client keeps only the raw reply chunks and packed timestamps, and
    checks replies after the session, so it stays small next to the
    programs it measures.
    """

    def __init__(self, server, examples, golden):
        self.server = server
        self.proc = server.proc
        self.examples = examples
        self.golden = golden
        self.sent = array.array("d")
        self.chunks = []       # (perf_counter time, bytes) per stdout read
        self.n_replies = 0     # complete reply lines read so far
        self.timed_out = False
        self.stopped_sending = None  # when the client closed stdin

    def run(self, send_seconds, hard_deadline, window):
        """Send until `send_seconds` have passed, then close stdin and read
        every remaining reply.  Stops at
        `hard_deadline` (perf_counter time) whatever is outstanding.  The
        garbage collector is off meanwhile so its pauses do not show up as
        server latency."""
        gc.disable()
        try:
            return self._run(send_seconds, hard_deadline, window)
        finally:
            gc.enable()

    def _run(self, send_seconds, hard_deadline, window):
        out_fd = self.proc.stdout.fileno()
        in_fd = self.proc.stdin.fileno()
        os.set_blocking(out_fd, False)
        os.set_blocking(in_fd, False)
        sel = selectors.DefaultSelector()
        sel.register(out_fd, selectors.EVENT_READ)
        stop_sending = time.perf_counter() + send_seconds
        pending = b""          # request lines being written
        written = 0            # bytes of `pending` already in the pipe
        ends = []              # offset in `pending` where each line ends
        writing = True
        next_id = 0
        write_registered = False
        n = len(self.examples)

        def close_stdin():
            try:
                sel.unregister(in_fd)
            except (KeyError, ValueError):
                pass
            self.server.close_stdin()

        while True:
            now = time.perf_counter()
            if now > hard_deadline:
                self.timed_out = True
                break
            if writing and not pending:
                if now >= stop_sending:
                    writing = False
                    self.stopped_sending = now
                    close_stdin()
                elif next_id - self.n_replies < window:
                    lines = []
                    while next_id - self.n_replies < window:
                        lines.append(request_line(next_id, self.examples[next_id % n]))
                        next_id += 1
                    pending = b"".join(lines)
                    ends = list(itertools.accumulate(len(l) for l in lines))
                    ends.reverse()
                    written = 0
            if pending:
                try:
                    written += os.write(in_fd, memoryview(pending)[written:])
                except BlockingIOError:
                    pass
                except BrokenPipeError:
                    break
                t = time.perf_counter()
                while ends and ends[-1] <= written:
                    ends.pop()
                    self.sent.append(t)
                if written == len(pending):
                    pending = b""
            want_write = bool(pending)
            if want_write != write_registered:
                if want_write:
                    sel.register(in_fd, selectors.EVENT_WRITE)
                else:
                    sel.unregister(in_fd)
                write_registered = want_write
            if writing and not pending and next_id - self.n_replies < window:
                timeout = 0.0
            else:
                timeout = min(0.05, max(0.0, hard_deadline - time.perf_counter()))
            for key, _ in sel.select(timeout):
                if key.fd != out_fd:
                    continue
                chunk = os.read(out_fd, 1 << 18)
                if not chunk:
                    sel.unregister(out_fd)
                    sel.close()
                    return self._finish()
                self.chunks.append((time.perf_counter(), chunk))
                self.n_replies += chunk.count(b"\n")
        sel.close()
        return self._finish()

    def _finish(self):
        if self.stopped_sending is None:
            self.stopped_sending = time.perf_counter()
        attempted = len(self.sent)
        ok, failures = 0, []
        # Replies that met the contract: arrival time and latency.
        received, latencies_us = array.array("d"), array.array("d")
        k, carry = 0, b""
        for t, chunk in self.chunks:
            lines = (carry + chunk).split(b"\n")
            carry = lines.pop()
            lines = lines[:attempted - k]
            n_ok, bad = match_in_order(lines, self.golden, first_id=k)
            ok += n_ok
            failures += [(k + j, why) for j, why in bad]
            bad_at = {j for j, _ in bad}
            for j in range(len(lines)):
                if j not in bad_at:
                    received.append(t)
                    latencies_us.append((t - self.sent[k + j]) * 1e6)
            k += len(lines)
        unanswered = attempted - k
        windows = per_window(received, latencies_us,
                             self.sent[0] if self.sent else 0.0,
                             self.stopped_sending)
        return {
            "windows": windows,
            "attempted": attempted,
            "ok": ok,
            "failed": len(failures) + unanswered,
            "unanswered": unanswered,
            "failures": failures[:5],
            "latencies_us": latencies_us,
            "timed_out": self.timed_out,
        }
