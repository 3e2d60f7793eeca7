"""Span recorder that wraps chainotp's public functions from outside the library.

Each traced function is replaced, for the duration of ``Tracer.installed()``,
under every name its callers look it up by: module-level functions in every
``chainotp`` module that imported them, methods on their class. A span keeps
(name, start, end, self time, parent span, login or cycle id); self time is
the span's duration minus the durations of its direct child spans. Digest
calls are only counted: timing a microsecond-scale call would swamp the trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# (span name, module, attribute); "Class.method" patches the class only.
SPANS = (
    ("crypto.sign", "chainotp.crypto", "sign"),
    ("crypto.verify", "chainotp.crypto", "verify"),
    ("mnemonic.encode", "chainotp.mnemonic", "encode"),
    ("mnemonic.decode", "chainotp.mnemonic", "decode"),
    ("merkle.build_tree", "chainotp.merkle", "build_tree"),
    ("merkle.prove", "chainotp.merkle", "prove"),
    ("merkle.verify_proof", "chainotp.merkle", "verify_proof"),
    ("identity.verify_credential", "chainotp.identity", "verify_credential"),
    ("otp.bootstrap_client", "chainotp.otp", "bootstrap_client"),
    ("otp.derive_precursor", "chainotp.otp", "derive_precursor"),
    ("ledger.submit_insert_otp", "chainotp.ledger", "Ledger.submit_insert_otp"),
    ("ledger.seal_block", "chainotp.ledger", "Ledger.seal_block"),
    ("ledger.inclusion_proof", "chainotp.ledger", "Ledger.inclusion_proof"),
    ("ledger.headers", "chainotp.ledger", "Ledger.headers"),
    ("ledger.events_for", "chainotp.ledger", "Ledger.events_for"),
    ("ledger.light_verify", "chainotp.ledger", "light_verify"),
    ("protocol.handle_request1", "chainotp.protocol", "ServiceProvider.handle_request1"),
    ("protocol.finalize_publication", "chainotp.protocol", "ServiceProvider.finalize_publication"),
    ("protocol.handle_request2", "chainotp.protocol", "ServiceProvider.handle_request2"),
    ("protocol.run_authentication", "chainotp.protocol", "run_authentication"),
    ("protocol.run_bootstrap", "chainotp.protocol", "run_bootstrap"),
    ("protocol.reinitialize", "chainotp.protocol", "reinitialize"),
    ("protocol.check_misuse", "chainotp.protocol", "check_misuse"),
    ("attack.stolen_client", "chainotp.attack", "attack_stolen_client_secrets"),
    ("scenario.run_scenario", "chainotp.scenario", "run_scenario"),
    ("scenario.to_json", "chainotp.scenario", "RunResult.to_json"),
)
COUNTED = (("crypto.digest", "chainotp.crypto", "digest"),)

SETUP_OP = -1  # login/cycle id of spans opened during set-up


class Tracer:
    """Spans kept in memory; aggregated and written out after the run."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = SETUP_OP
        self._open: list[list] = []  # [span index, seconds covered by children]

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_[-1][0] if open_ else -1
            op = self.op
            frame = [len(spans), 0.0]
            spans.append(None)
            open_.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                if open_:
                    open_[-1][1] += end - start
                spans[frame[0]] = (name, start, end, end - start - frame[1], parent, op)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced name; restore the originals on exit."""
        modules = [m for n, m in sys.modules.items() if n == "chainotp" or n.startswith("chainotp.")]
        saved = []

        def patch(holder, attr: str, wrapper: Callable) -> None:
            saved.append((holder, attr, getattr(holder, attr)))
            setattr(holder, attr, wrapper)

        try:
            for wrap, targets in ((self._span, SPANS), (self._counted, COUNTED)):
                for name, module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    if "." in attr:
                        cls_name, method = attr.split(".")
                        cls = getattr(module, cls_name)
                        patch(cls, method, wrap(name, getattr(cls, method)))
                        continue
                    original = getattr(module, attr)
                    wrapper = wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                patch(mod, key, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def aggregate(self, slowdown: float = 1.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms and total_ms, overall and split
        into set-up and loop self time; times are divided by ``slowdown``."""
        stats = {
            name: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "setup_self_ms": 0.0, "loop_self_ms": 0.0}
            for name, _, _ in SPANS + COUNTED
        }
        ms = 1e3 / slowdown
        for name, start, end, self_s, _parent, op in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["self_ms"] += self_s * ms
            s["total_ms"] += (end - start) * ms
            s["setup_self_ms" if op == SETUP_OP else "loop_self_ms"] += self_s * ms
        for name, calls in self.counts.items():
            stats[name]["calls"] = calls
        return stats

    def write(self, path: Path) -> None:
        """One tab-separated line per span, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            out.write("span\tname\tstart_us\tend_us\tself_us\tparent\top\n")
            for i, (name, start, end, self_s, parent, op) in enumerate(self.spans):
                out.write(
                    f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}"
                    f"\t{self_s * 1e6:.1f}\t{parent}\t{op}\n"
                )
