"""``addon-sig serve``: the entry module of the long-running vetting
daemon.

Run ``python -m repro.service.daemon --dir DIR --http 0`` (or via the
CLI: ``addon-sig serve``). The daemon prints one ``listening on``
line and also publishes ``<dir>/daemon.json`` (pid + port, atomically)
so load generators can discover it; with ``--stdio`` it prints a
``ready`` line on stderr and speaks JSON-RPC on stdin/stdout.

This module is deliberately thin: it parses flags and hands over to
:mod:`repro.service.server`, imported only inside :func:`main`. The
pool's workers fork from the *template* (:func:`repro.batch
.start_template`), and a worker forked from it still re-runs the
parent's ``-m`` module, as ``__mp_main__``, so whatever this module
imports at the top, every worker loads too — asyncio, OpenSSL and the
daemon's control plane included, none of which a worker runs.
:func:`main` also keeps OpenSSL out of the daemon itself
(:func:`block_openssl`).
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addon-sig serve",
        description="long-running crash-safe vetting daemon",
    )
    parser.add_argument(
        "--dir", required=True,
        help="service state directory (journals, results, version chains)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="vetting worker processes (default 2)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job cooperative wall-clock budget (degrades the "
             "signature; a generous hard backstop fails wedged jobs)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="poison threshold: crashes before a job is quarantined",
    )
    parser.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve HTTP on 127.0.0.1:PORT (0 = pick a free port)",
    )
    parser.add_argument(
        "--stdio", action="store_true",
        help="speak newline-delimited JSON-RPC on stdin/stdout",
    )
    parser.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on journal appends and result commits "
             "(tests only: loses power-failure durability)",
    )
    parser.add_argument(
        "--max-chains", type=int, default=None,
        help="LRU bound on recorded version chains (default unbounded)",
    )
    return parser


def block_openssl() -> None:
    """Keep OpenSSL (~4 MB) out of this process: importing ``ssl`` or
    ``_hashlib`` from now on fails, unless it is loaded already.

    The daemon opens no TLS transport (its doors are stdio and plain
    localhost HTTP), and asyncio runs without ``ssl`` when that import
    fails. Without ``_hashlib``, ``hashlib`` hashes job ids with the
    interpreter's built-in SHA-256: the same digests."""
    for module in ("ssl", "_hashlib"):
        sys.modules.setdefault(module, None)


def main(argv: list[str] | None = None) -> int:
    block_openssl()
    import asyncio

    from repro.service.server import _amain

    arguments = build_parser().parse_args(argv)
    if arguments.http is None and not arguments.stdio:
        arguments.stdio = True  # default front door: stdin JSON-RPC
    try:
        return asyncio.run(_amain(arguments))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
