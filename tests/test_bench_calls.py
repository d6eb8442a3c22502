"""``benchmarks/bench.py`` drives csner through module attributes
(``trainer.fit``, ``ad.AdamState`` and so on).  A renamed function or a
dropped parameter fails there only when the benchmark runs, so this test
reads the file and holds every such call to the signature it reaches."""

import ast
import inspect
import pathlib

from csner import autodiff, cli, corpus_io, embeddings, preprocess, trainer

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"
# the names bench.py binds csner's modules to
MODULES = {"ad": autodiff, "cli": cli, "corpus_io": corpus_io, "embeddings": embeddings,
           "preprocess": preprocess, "trainer": trainer}
TREE = ast.parse(BENCH.read_text(encoding="utf-8"))


def csner_attribute(node) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES)


def test_every_attribute_read_exists():
    reads = [node for node in ast.walk(TREE) if csner_attribute(node)]
    assert reads
    missing = {f"{n.value.id}.{n.attr}" for n in reads if not hasattr(MODULES[n.value.id], n.attr)}
    assert sorted(missing) == []


def test_every_call_binds_to_its_signature():
    calls = [node for node in ast.walk(TREE)
             if isinstance(node, ast.Call) and csner_attribute(node.func)]
    assert calls
    unbound = []
    for call in calls:
        name = f"{call.func.value.id}.{call.func.attr}"
        target = getattr(MODULES[call.func.value.id], call.func.attr, None)
        if target is None:
            continue  # reported by test_every_attribute_read_exists
        # bench.py spreads no arguments, so each one has a name or a place
        assert not any(isinstance(a, ast.Starred) for a in call.args), name
        assert all(k.arg is not None for k in call.keywords), name
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"bench.py:{call.lineno}: {name}: {exc}")
    assert unbound == []
