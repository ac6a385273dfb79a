"""Layer spans recorded from outside the program.

The benchmark never edits enclavesim.  It replaces names at the place the
program looks them up at call time -- a module attribute, or a method on a
class -- and puts every original back when the pass ends.  A function that
other modules import by name is looked up in those modules, not in the one
that defines it, so it is replaced in each of them (``epc.ecb_decrypt_page``
as well as ``crypto.ecb_decrypt_page``).

Spans stay in memory as parallel integer arrays (name, start, end, parent,
operation) and are written out once, after the traced pass.  The tracer
opens one root span around the whole pass; a span's self time is its
duration minus the durations of its direct children, so the self times of
all spans -- the root's self time being the ``unattributed`` bucket -- add
up to the root's duration exactly, in integer nanoseconds.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

perf_ns = time.perf_counter_ns

ROOT = "unattributed"

# (span name, owner, attribute).  The owner is a module, or "module:Class".
# The layer of a span is the part of its name before the first dot.
TARGETS = (
    ("crypto.page_cipher", "enclavesim.epc", "ecb_encrypt_page"),
    ("crypto.page_cipher", "enclavesim.epc", "ecb_decrypt_page"),
    ("crypto.page_cipher", "enclavesim.crypto", "ecb_encrypt_page"),
    ("crypto.page_cipher", "enclavesim.crypto", "ecb_decrypt_page"),
    ("crypto.mac", "enclavesim.crypto", "keyed_mac8"),
    ("crypto.mac", "enclavesim.forest", "keyed_mac8"),
    ("crypto.mac", "enclavesim.merkle", "keyed_mac8"),
    ("crypto.key_wrap", "enclavesim.epc", "wrap_key"),
    ("crypto.key_wrap", "enclavesim.epc", "unwrap_key"),
    ("crypto.key_wrap", "enclavesim.crypto", "wrap_key"),
    ("crypto.key_wrap", "enclavesim.crypto", "unwrap_key"),
    ("forest.verify", "enclavesim.forest:MacForest", "verify_page"),
    ("forest.update", "enclavesim.forest:MacForest", "update"),
    ("forest.boot", "enclavesim.forest:MacForest", "__init__"),
    ("merkle.read_verify", "enclavesim.merkle:EpcMerkle", "read_verify"),
    ("merkle.write_update", "enclavesim.merkle:EpcMerkle", "write_update"),
    ("merkle.check_data", "enclavesim.merkle:EpcMerkle", "check_data"),
    ("merkle.boot", "enclavesim.merkle:EpcMerkle", "__init__"),
    ("verifier.drain", "enclavesim.epc:SecScaleEngine", "syscall_barrier"),
    ("verifier.drain", "enclavesim.epc:SecScaleEngine", "finalize"),
    ("epc.access", "enclavesim.epc:SecScaleEngine", "access"),
    ("epc.fault_step", "enclavesim.epc:SecScaleEngine", "fault_step"),
    ("epc.boot", "enclavesim.epc:SecScaleEngine", "__init__"),
    ("layout.dram", "enclavesim.layout:EmulatedDram", "read"),
    ("layout.dram", "enclavesim.layout:EmulatedDram", "write"),
    ("layout.dram", "enclavesim.layout:EmulatedDram", "read_span"),
    ("layout.dram", "enclavesim.layout:EmulatedDram", "write_span"),
    ("layout.dram", "enclavesim.layout:EmulatedDram", "peek"),
    ("layout.dram", "enclavesim.layout:EmulatedDram", "poke"),
    ("workload.generate", "enclavesim.workload", "generate"),
    ("sim.run", "enclavesim.sim", "run"),
    ("adversary.attack", "enclavesim.adversary", "run_attack"),
)

LAYERS = (
    "crypto", "forest", "merkle", "verifier", "epc",
    "layout", "workload", "sim", "adversary",
)


def resolve(owner: str):
    """The module or class an owner string names, or None if it is gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class PatchSet:
    """Attribute replacements, undone in reverse order by restore()."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, name: str, make) -> bool:
        """Set owner.name to make(original); False when there is no target."""
        if owner is None or not callable(getattr(owner, name, None)):
            return False
        inherited = isinstance(owner, type) and name not in vars(owner)
        original = getattr(owner, name) if inherited else vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original, inherited))
        return True

    def restore(self):
        while self._undo:
            owner, name, original, inherited = self._undo.pop()
            if inherited:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Spans around every target in TARGETS, kept in memory."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1  # set by the caller around each operation
        self.missing: list[str] = []  # "owner.attr" targets that are gone
        self.installed: set[str] = set()  # span names with a live target
        self._stack: list[list[int]] = []  # [span index, name id, child ns]
        self.self_ns: list[int] = [0]
        self.calls: list[int] = [0]

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self.names.index(name)

    def install(self, patches: PatchSet):
        for name, owner, attr in TARGETS:
            sid = self._id(name)
            if patches.replace(resolve(owner), attr, lambda fn, s=sid: self._wrap(fn, s)):
                self.installed.add(name)
            else:
                self.missing.append(f"{owner}.{attr}")

    def _wrap(self, fn, sid: int):
        # the hot path: everything is bound to locals, and the bookkeeping
        # sits outside [start, end], so it is charged to the parent span
        stack, start, end = self._stack, self.start, self.end
        self_ns, calls = self.self_ns, self.calls
        add_name, add_parent, add_op = (
            self.name_id.append, self.parent.append, self.op.append
        )
        add_start, add_end = start.append, end.append
        tracer = self

        def traced(*args, **kwargs):
            # a call from inside a span of the same name stays in that span
            if stack and stack[-1][1] == sid:
                return fn(*args, **kwargs)
            idx = len(start)
            add_name(sid)
            add_parent(stack[-1][0] if stack else -1)
            add_op(tracer.current_op)
            add_end(0)
            frame = [idx, sid, 0]
            stack.append(frame)
            add_start(perf_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                end[idx] = t1
                stack.pop()
                dur = t1 - start[idx]
                self_ns[sid] += dur - frame[2]
                calls[sid] += 1
                if stack:
                    stack[-1][2] += dur

        traced.__wrapped__ = fn
        return traced

    def run(self, fn, *args, **kwargs):
        """Call fn inside the root span; time outside every target lands there."""
        if len(self.start):
            raise RuntimeError("a tracer records one pass")
        return self._wrap(fn, 0)(*args, **kwargs)

    # ----------------------------------------------------------- results
    @property
    def wall_ns(self) -> int:
        return self.end[0] - self.start[0]

    def by_name(self) -> dict[str, tuple[int, int]]:
        """{span name: (calls, self ns)}; the root is the unattributed bucket."""
        return {n: (self.calls[i], self.self_ns[i]) for i, n in enumerate(self.names)}

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer plus the root's; together they are wall_ns."""
        out = {layer: 0 for layer in LAYERS}
        out[ROOT] = 0
        for name, (_, ns) in self.by_name().items():
            out[name.split(".", 1)[0]] += ns
        return out

    def write(self, path):
        """Spans as gzip CSV: times in ns from the root span's start."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(
                    f"{i},{names[self.name_id[i]]},{self.start[i] - t0},"
                    f"{self.end[i] - t0},{self.parent[i]},{self.op[i]}\n"
                )
