"""The static and the dynamic verifier agree.

For every straight-line program of up to five events over one persist
domain ``pd`` — store, flush, fence, publish — the ESP5xx verdict on the
source must equal the ESP2xx verdict of :func:`repro.analysis.events.replay`
on the matching concrete trace, where the domain is one target line:

* a publish reached without a dominating flush-then-fence (ESP501) is a
  pointer made durable before its target line was (ESP201);
* a flush still pending when the program returns (ESP503) is a line
  flushed after the trace's last fence (ESP202).

The matching trace spells out two premises.  Every program starts by
storing its object (a line the trace never stores counts as durable
before it began).  And a flush in the source is a store then a flush of
the line: the static pass cannot see which line a store dirtied, so it
takes every flushed receiver to cover a dirty one
(:meth:`~repro.analysis.events.LineState.flush`).  Each publish's pointer
slot sits on a line of its own, flushed right after the publish; the
ESP201 trace ends in one more fence, so every pointer becomes durable.
"""

import itertools

from repro.analysis.events import replay
from repro.analysis.static_order import analyze_paths

OPS = ("store", "flush", "fence", "publish")
SOURCE = {"store": "pd.write(0, 1)", "flush": "pd.flush(0, 1)",
          "fence": "pd.fence()", "publish": "set_root(h)"}
LINE_WORDS, SLOT_LINE = 8, 4


def _programs():
    for length in range(1, 6):
        yield from itertools.product(OPS, repeat=length)


def _trace(program):
    """(events, event index of each publish)."""
    events, publishes = [("store", 0, 1)], []
    for op in program:
        if op == "store":
            events.append(("store", 0, 1))
        elif op == "flush":
            events += [("store", 0, 1), ("flush", 0)]
        elif op == "fence":
            events.append(("fence",))
        else:
            slot_line = SLOT_LINE + len(publishes)
            publishes.append(len(events))
            events += [("publish", slot_line * LINE_WORDS, 0),
                       ("flush", slot_line)]
    return events, publishes


def test_esp5xx_verdicts_equal_esp2xx_on_the_matching_trace(tmp_path):
    programs = list(_programs())
    source = ['@publish_point("root")', "def set_root(h):", "    pass"]
    publish_lines = []   # per program: the source line of each publish
    for i, program in enumerate(programs):
        source += ["", f"def work_{i}(h):", "    pd.write(0, 1)"]
        publish_lines.append([])
        for op in program:
            source.append("    " + SOURCE[op])
            if op == "publish":
                publish_lines[-1].append(len(source))
    (tmp_path / "m.py").write_text("\n".join(source) + "\n")
    result = analyze_paths([tmp_path])
    static = {}
    for diag in result.findings:
        verdicts = static.setdefault(diag.where, {"ESP501": set()})
        if diag.code == "ESP501":
            verdicts["ESP501"].add(dict(diag.data)["line"])
        else:
            verdicts[diag.code] = True
    assert {d.code for d in result.findings} == {"ESP501", "ESP503"}

    for i, program in enumerate(programs):
        verdicts = static.get(f"m.py::work_{i}", {"ESP501": set()})
        events, publishes = _trace(program)
        durable = replay(events + [("fence",)], LINE_WORDS).hazards
        esp201 = {d.data for d in durable if d.code == "ESP201"}
        unguarded = [line in verdicts["ESP501"] for line in publish_lines[i]]
        assert unguarded == [
            any(dict(data)["event_index"] == at for data in esp201)
            for at in publishes], program
        pending = [d for d in replay(events, LINE_WORDS).hazards
                   if d.code == "ESP202"]
        assert verdicts.get("ESP503", False) == bool(pending), program
