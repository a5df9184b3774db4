#!/usr/bin/env python3
"""Self-test for tools/lint/strix_lint.py.

Asserts the behaviors the CI lint job depends on:

  1. the real src/ tree passes (exit 0), also with --repo, which
     adds the tools/ tree to the secret checks;
  2. the committed negative fixtures fail (exit 1) with a file:line
     diagnostic -- a secret-flow violation reporting its include
     chain, a poly -> tfhe upward include, and a tools/ TU including
     the secret header;
  3. a stale allowlist entry (a file that exists but no longer
     includes client_keyset.h) fails, so the allowlist cannot rot.

Plain unittest + subprocess: no third-party test deps, runnable as
`python3 tests/lint/test_lint.py` or through ctest.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINTER = os.path.join(REPO, "tools", "lint", "strix_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args):
    return subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True, text=True, cwd=REPO)


class StrixLintTest(unittest.TestCase):
    def test_real_tree_passes(self):
        r = run_lint("--src", "src")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK", r.stdout)

    def test_secret_violation_rejected(self):
        src = os.path.join(FIXTURES, "secret_violation")
        r = run_lint("--src", src, "--allowlist=")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        # Direct include flagged with file:line...
        self.assertIn("tfhe/bootstrap.h:6: [secret-direct]", r.stdout)
        # ...the closure walk reports the offending include chain...
        self.assertIn("[secret-include]", r.stdout)
        self.assertIn("tfhe/bootstrap.h (server root)", r.stdout)
        self.assertIn("-> tfhe/client_keyset.h (included at "
                      "tfhe/bootstrap.h:6)", r.stdout)
        # ...and naming the secret type in a server TU is caught too.
        self.assertIn("[secret-name]", r.stdout)

    def test_layering_violation_rejected(self):
        src = os.path.join(FIXTURES, "layering_violation")
        r = run_lint("--src", src, "--allowlist=")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("poly/fft.cpp:3: [layering]", r.stdout)
        self.assertIn("poly/ may not include tfhe/", r.stdout)

    def test_real_tree_passes_repo_wide(self):
        # The CI invocation: --repo adds the daemon binaries under
        # tools/ to the layering and secret checks.
        r = run_lint("--src", "src", "--repo", ".")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK", r.stdout)

    def test_net_layering_violation_rejected(self):
        # The wire layer may only include common/: a net/ TU reaching
        # into tfhe/ breaks the below-the-crypto contract.
        src = os.path.join(FIXTURES, "net_layering")
        r = run_lint("--src", src, "--allowlist=")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("net/socket.cpp:3: [layering]", r.stdout)
        self.assertIn("net/ may not include tfhe/", r.stdout)

    def test_server_secret_violation_rejected(self):
        # A daemon TU including the key-owning ContextCache facade:
        # the closure walk must print the chain down to the secret
        # header, and naming the secret type is flagged separately.
        src = os.path.join(FIXTURES, "server_secret")
        r = run_lint("--src", src,
                     "--allowlist=tfhe/context_cache.h")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("[secret-include]", r.stdout)
        self.assertIn("server/server.cpp (server root)", r.stdout)
        self.assertIn("-> tfhe/context_cache.h (included at "
                      "server/server.cpp:4)", r.stdout)
        self.assertIn("-> tfhe/client_keyset.h (included at "
                      "tfhe/context_cache.h:5)", r.stdout)
        self.assertIn("server/server.cpp:9: [secret-name]", r.stdout)

    def test_tools_tree_joins_secret_checks_under_repo(self):
        # With --repo, tools/ binaries are server-side closure roots:
        # an ops tool including the secret header is rejected.
        fixture = os.path.join(FIXTURES, "tool_secret")
        r = run_lint("--src", os.path.join(fixture, "src"),
                     "--repo", fixture, "--allowlist=")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("tools/key_dumper.cpp:3: [secret-direct]",
                      r.stdout)
        self.assertIn("tools/key_dumper.cpp (server root)", r.stdout)
        # Without --repo the tools tree is out of scope: same src
        # passes clean.
        r = run_lint("--src", os.path.join(fixture, "src"),
                     "--allowlist=")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_stale_allowlist_entry_rejected(self):
        # poly/negacyclic_fft.h exists in the real tree but does not
        # include client_keyset.h, so allowlisting it must fail as
        # stale (not as missing: that is the next test's branch).
        r = run_lint("--src", "src",
                     "--allowlist=tfhe/integer.h,"
                     "poly/negacyclic_fft.h")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("poly/negacyclic_fft.h:0: [allowlist-stale] "
                      "allowlisted but no longer includes "
                      "tfhe/client_keyset.h", r.stdout)

    def test_missing_allowlist_entry_rejected(self):
        r = run_lint("--src", "src",
                     "--allowlist=tfhe/does_not_exist.h")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("[allowlist-stale]", r.stdout)

    def test_default_allowlist_matches_reality(self):
        # Every default-allowlist entry must still include the secret
        # header (freshness) AND every direct includer must be listed
        # (completeness) -- both are what "the allowlist matches
        # reality" means; a clean run on src asserts the conjunction.
        r = run_lint("--src", "src")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
