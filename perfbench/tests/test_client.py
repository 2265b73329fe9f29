"""Closed-loop accounting of perfbench_client against a scripted server.

The client is compiled from perfbench/src/client.cc into a temporary
directory (it depends on nothing but the standard library)."""

import json
import os
import re
import shutil
import socket
import subprocess
import tempfile
import threading
import unittest

import util

SOURCE = os.path.join(util.PERFBENCH, "src", "client.cc")
NONCE_DIGITS = ".-,;:!?/()[]+=*#"


class ScriptedServer:
    """Answers each request line in order. Every `refuse_every`-th request
    (counted over the server) is refused as overloaded; the connection that
    carries request number `close_at` is closed without answering it."""

    def __init__(self, refuse_every=0, close_at=0):
        self.refuse_every = refuse_every
        self.close_at = close_at
        self.lines = []
        self.lock = threading.Lock()
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.threads = []
        threading.Thread(target=self.accept, daemon=True).start()

    def accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            thread = threading.Thread(target=self.serve, args=(conn,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def serve(self, conn):
        with conn, conn.makefile("rb") as reader:
            for raw in reader:
                with self.lock:
                    self.lines.append(raw.decode().rstrip("\n"))
                    number = len(self.lines)
                if number == self.close_at:
                    conn.shutdown(socket.SHUT_RDWR)
                    return
                if self.refuse_every and number % self.refuse_every == 0:
                    reply = b'{"ok":false,"error":"overloaded"}\n'
                else:
                    reply = b'{"margin":0.5,"ok":true}\n'
                try:
                    conn.sendall(reply)
                except OSError:
                    return

    def close(self):
        self.sock.close()


class ClientTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = tempfile.mkdtemp()
        cls.binary = os.path.join(cls.dir, "perfbench_client")
        subprocess.run(["g++", "-std=c++20", "-O1", "-o", cls.binary, SOURCE], check=True)
        cls.requests = os.path.join(cls.dir, "requests.txt")
        with open(cls.requests, "w") as out:
            out.write('{"type":"score_pair","a":"x|y|z@NONCE@","b":"x|y|w"}\n')
            out.write('{"type":"predict_ctr","snippet":"x|y|z"}\n')

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def run_client(self, server, *extra):
        result = subprocess.run(
            [self.binary, "--port", str(server.port), "--requests", self.requests,
             "--connections", "4", "--depth", "8", "--warmup-seconds", "0.1",
             "--seconds", "0.4"] + list(extra),
            capture_output=True, text=True, timeout=60, check=True)
        return json.loads(result.stdout.strip().splitlines()[-1])

    def test_every_request_ends_ok_or_failed(self):
        server = ScriptedServer()
        try:
            report = self.run_client(server)
        finally:
            server.close()
        self.assertGreater(report["attempted"], 0)
        # The window's stop drains every outstanding request: nothing the
        # client sent is left unanswered and counted as a failure.
        self.assertEqual(report["failed"], 0)
        self.assertEqual(report["attempted"], report["ok"])
        self.assertEqual(report["attempted"], len(server.lines))
        self.assertEqual(report["window_sent"],
                         report["endpoints"]["score_pair"]["count"] +
                         report["endpoints"]["predict_ctr"]["count"])

    def test_refusals_and_closed_connections_are_counted_by_error(self):
        server = ScriptedServer(refuse_every=5, close_at=100)
        try:
            report = self.run_client(server)
        finally:
            server.close()
        self.assertEqual(report["attempted"], report["ok"] + report["failed"])
        self.assertEqual(report["failed"], sum(report["errors"].values()))
        self.assertGreater(report["errors"]["overloaded"], 0)
        # The closed connection had its whole pipeline in flight; whether
        # the client notices on its next read or its next write is a race.
        errors = report["errors"]
        self.assertEqual(errors.get("connection_closed", 0) + errors.get("send_failed", 0), 8)

    def test_nonces_make_every_request_unique(self):
        server = ScriptedServer()
        try:
            self.run_client(server, "--nonce-base", "1000")
        finally:
            server.close()
        pairs = [line for line in server.lines if "score_pair" in line]
        self.assertEqual(len(set(pairs)), len(pairs))
        for line in pairs:
            nonce = re.search(r'"a":"x\|y\|z ([^"]*)"', line).group(1)
            self.assertTrue(nonce and all(c in NONCE_DIGITS for c in nonce), line)
        points = [line for line in server.lines if "predict_ctr" in line]
        self.assertEqual(set(points), {'{"type":"predict_ctr","snippet":"x|y|z"}'})


if __name__ == "__main__":
    unittest.main()
