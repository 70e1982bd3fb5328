"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness as h  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(h.percentile(values, 5), 15)
        self.assertEqual(h.percentile(values, 30), 20)
        self.assertEqual(h.percentile(values, 40), 20)
        self.assertEqual(h.percentile(values, 50), 35)
        self.assertEqual(h.percentile(values, 100), 50)

    def test_p99_leaves_ten_samples_beyond_at_1000(self):
        values = list(range(1, 1001))
        p99 = h.percentile(values, 99)
        self.assertEqual(p99, 990)
        self.assertEqual(sum(v > p99 for v in values), 10)

    def test_order_does_not_matter(self):
        self.assertEqual(h.percentile([3, 1, 2], 50), 2)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            h.percentile([], 50)
        with self.assertRaises(ValueError):
            h.percentile([1], 0)
        with self.assertRaises(ValueError):
            h.percentile([1], 101)


class MedianIqrTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(h.median([3, 1, 2]), 2)
        self.assertEqual(h.median([4, 1, 2, 3]), 2.5)

    def test_iqr_matches_statistics_quantiles(self):
        values = [2.1, 2.4, 1.9, 3.3, 2.2, 2.0, 2.6, 2.5, 2.3, 2.8]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(h.iqr(values), q3 - q1)

    def test_iqr_of_one_sample_is_zero(self):
        self.assertEqual(h.iqr([5.0]), 0.0)

    def test_summary(self):
        s = h.summary([1.0, 2.0, 3.0])
        self.assertEqual((s["median"], s["n"], s["min"], s["max"]), (2.0, 3, 1.0, 3.0))


class WindowTest(unittest.TestCase):
    def test_only_whole_windows_inside_the_send_phase(self):
        received = [0.1, 0.5, 1.2, 1.7, 2.2, 2.4, 3.1, 3.2]
        latencies = [10, 20, 30, 40, 50, 60, 70, 80]
        windows = h.per_window(received, latencies, start=0.0, end=3.0)
        # [0,1), [1,2) and [2,3) are whole; 3.1 and 3.2 fall past the end.
        self.assertEqual(len(windows), 3)
        for (rate, p50, p90, n), want in zip(windows, [(1 / 0.4, 10, 20),
                                                       (1 / 0.5, 30, 40),
                                                       (1 / 0.2, 50, 60)]):
            self.assertAlmostEqual(rate, want[0])
            self.assertEqual((p50, p90, n), (want[1], want[2], 2))

    def test_partial_and_single_reply_windows_dropped(self):
        windows = h.per_window([0.2, 0.6, 1.5, 2.5], [1, 2, 3, 4],
                               start=0.0, end=2.9)
        self.assertEqual([w[3] for w in windows], [2])


class InOrderMatchTest(unittest.TestCase):
    golden = [2, 0, 1]

    def reply(self, i, pred, ok=True):
        return json.dumps({"ok": ok, "id": i, "prediction": pred}).encode()

    def test_all_match_and_stream_wraps(self):
        lines = [self.reply(i, self.golden[i % 3]) for i in range(7)]
        self.assertEqual(h.match_in_order(lines, self.golden), (7, []))

    def test_out_of_order_reply_fails(self):
        lines = [self.reply(1, 0), self.reply(0, 2)]
        ok, failures = h.match_in_order(lines, self.golden)
        self.assertEqual(ok, 0)
        self.assertEqual([k for k, _ in failures], [0, 1])

    def test_wrong_prediction_error_and_garbage_fail(self):
        lines = [self.reply(0, 1), self.reply(1, 0, ok=False), b"{not json",
                 self.reply(3, 2)]
        ok, failures = h.match_in_order(lines, self.golden)
        self.assertEqual(ok, 1)
        self.assertEqual([k for k, _ in failures], [0, 1, 2])

    def test_first_id_offsets_the_stream(self):
        lines = [self.reply(5, self.golden[5 % 3])]
        self.assertEqual(h.match_in_order(lines, self.golden, first_id=5), (1, []))


class ServeClientTest(unittest.TestCase):
    """The pipe client against small stand-in servers."""

    examples = [(b"01", 0), (b"10", 1), (b"11", 2)]
    golden = [2, 0, 1]
    ready = "import json, sys, time\nsys.stderr.write('ready\\n')\nsys.stderr.flush()\n"
    echo = ready + ("golden = [2, 0, 1]\n"
                    "for line in sys.stdin:\n"
                    "    i = json.loads(line)['id']\n"
                    "    print(json.dumps({'ok': True, 'id': i, 'prediction': golden[i % 3]}),"
                    " flush=True)\n")

    def drive(self, script, send_s, deadline_s):
        server = h.ServeProcess([sys.executable, "-c", script], 10)
        try:
            self.assertIsNotNone(server.setup_s)
            client = h.ServeClient(server, self.examples, self.golden)
            res = client.run(send_s, time.perf_counter() + deadline_s, window=8)
        finally:
            server.close(time.perf_counter())
        self.assertGreater(server.peak_mb, 0)
        return client, res

    def test_every_reply_matched_and_timed_from_its_send(self):
        client, res = self.drive(self.echo, 0.3, 10)
        self.assertFalse(res["timed_out"])
        self.assertGreater(res["attempted"], 8)
        self.assertEqual((res["ok"], res["failed"]), (res["attempted"], 0))
        self.assertEqual(len(client.sent), res["attempted"])
        self.assertTrue(all(lat > 0 for lat in res["latencies_us"]))

    def test_silent_server_counts_unanswered_as_failed(self):
        stall = self.ready + "sys.stdin.read()\ntime.sleep(30)\n"
        _, res = self.drive(stall, 0.2, 0.5)
        self.assertTrue(res["timed_out"])
        self.assertEqual(res["attempted"], 8)
        self.assertEqual((res["ok"], res["unanswered"], res["failed"]), (0, 8, 8))


class PeakRssTest(unittest.TestCase):
    def test_child_peak_leaves_out_this_process(self):
        ballast = b"x" * (64 << 20)  # resident in this process only
        code, _, rss, _ = h.run_timed(
            [sys.executable, "-c", "import time; time.sleep(0.2)"], os.devnull, 10)
        self.assertEqual(code, 0)
        self.assertLess(rss, 48)
        del ballast


class RequestLineTest(unittest.TestCase):
    def test_request_line(self):
        line = h.request_line(7, (b"0110", 3))
        self.assertEqual(json.loads(line), {"id": 7, "x": "0110", "label": 3})
        self.assertTrue(line.endswith(b"\n"))


class FlowOutputTest(unittest.TestCase):
    text = """=== MATADOR flow summary: kws6-like ===
accuracy: train 99.45%  test 98.33%
resources: 4490 LUTs (4297 logic / 193 mem), 6202 registers, BRAM 3.0
performance: latency 9 cycles = 0.138 us, II 6 cycles, throughput 10,833,333 inf/s

stage      status        wall(ms)
train      ok                99.94  epochs=5/5 stop=max-epochs best=5
verify     ok               339.31  lint: 0 errors, 0 warnings, 1 info; prove: 3507/3507 unsat
total      ok               453.42
"""

    def test_parse(self):
        p = h.parse_flow_output(self.text)
        self.assertAlmostEqual(p["stages"]["train"][1], 0.09994)
        self.assertAlmostEqual(p["stages"]["total"][1], 0.45342)
        self.assertEqual(p["test_accuracy_pct"], 98.33)
        self.assertEqual(p["luts"], 4490)
        self.assertEqual(p["latency_cycles"], 9)
        self.assertEqual(p["prove"], (3507, 3507))

    def test_missing_fields_are_none(self):
        p = h.parse_flow_output("nothing here")
        self.assertEqual(p["stages"], {})
        self.assertIsNone(p["prove"])


if __name__ == "__main__":
    unittest.main()
