"""Per-layer metrics of a traced pass, and the gate-headroom report lines.

Every metric is computed on every workload; a layer a workload does not
exercise reads 0 there.  Times are seconds of the traced pass (they carry
the tracing overhead, which ``trace.overhead_share`` states).
"""

from __future__ import annotations

from tracer import LAYERS, SpanTable

GATE_S = 60.0

# metrics that are not a direct measurement, and how they are obtained
NOTES = {
    "codec.map_s": "derived: replayed MAP time per trial times the simulated trials",
    "codec.sc_s": "derived: codec.simulate self time minus codec.map_s",
    "becpolar.levels_computed_mb": "computed: sum over retained levels of ell^d x 9 B",
}


def _layer(name):
    return lambda nm: nm.startswith(name + ".")


def _is(*names):
    return lambda nm: nm in names


def _ratio(a, b):
    return a / b if b else 0.0


def _pass_s(records):
    return sum(sum(r["wall"]) for r in records)


def layer_metrics(tracer, counters, ops, untraced, traced, replays, peak_bytes):
    table = SpanTable(tracer)
    in_pass = table.mask_under(lambda nm: nm.startswith("op:"))
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def outer(*names, mask=in_pass):
        return table.outer_s(_is(*names), mask)

    for layer in LAYERS:
        put(f"{layer}.self_s", table.self_s(_layer(layer), in_pass), "s")

    # becpolar
    enumerate_s = outer("becpolar.enumerate_level", "becpolar.enumerate_levels")
    sample_s = outer("becpolar.sample_paths")
    put("becpolar.enumerate_s", enumerate_s, "s")
    put("becpolar.channels", counters["channels"], "count")
    put("becpolar.channels_per_s", _ratio(counters["channels"], enumerate_s), "1/s")
    put("becpolar.split_s", outer("becpolar.split_erasure_polynomials"), "s")
    put("becpolar.sample_s", sample_s, "s")
    put("becpolar.paths", counters["paths"], "count")
    put("becpolar.paths_per_s", _ratio(counters["paths"], sample_s), "1/s")
    put("becpolar.enumerate_peak_mb", peak_bytes["enumerate"] / 2**20, "MiB")
    put("becpolar.sample_peak_mb", peak_bytes["sample"] / 2**20, "MiB")
    put("becpolar.levels_computed_mb", counters["levels_bytes"] / 2**20, "MiB")

    # gf2kernel
    put("gf2kernel.determined_masks_s", outer("gf2kernel.determined_masks"), "s")
    put("gf2kernel.partial_distances_s", outer("gf2kernel.partial_distances"), "s")
    put("gf2kernel.is_polarizing_s", outer("gf2kernel.is_polarizing"), "s")
    put("gf2kernel.calls", table.calls(_layer("gf2kernel"), in_pass), "count")

    # serialize
    values = table.calls(_is("serialize.fmt_real"), in_pass)
    put("serialize.values", values, "count")
    put("serialize.values_per_s", _ratio(values, m["serialize.self_s"][0]), "1/s")

    # construct
    put("construct.polar_s", outer("construct.polar_selection"), "s")
    put("construct.rm_s", outer("construct.rm_selection"), "s")
    put("construct.hybrid_s",
        outer("construct.hybrid_selection", "construct.hybrid_selection_recursive"), "s")
    put("construct.bounds_s", outer("construct.selection_bounds"), "s")
    put("construct.hybrid_shortfall_share",
        _ratio(counters["hybrid_shortfall"], counters["hybrid_selected"]), "ratio")

    # codec: MAP time comes from the replay, scaled from its prefix to the
    # op's trial count; SC time is derived as simulate self time minus it
    map_s = 0.0
    for op in ops:
        rep = replays.get(op.id)
        if rep is None:
            continue
        mask = table.mask_under(_is(f"replay:{op.id}"))
        simulated = op.params["trials"] * op.repeat
        map_s += outer("codec.map_decode_bec", mask=mask) / rep.trials * simulated
    simulate_s = outer("codec.simulate")
    trials = counters["trials"]
    put("codec.simulate_s", simulate_s, "s")
    put("codec.map_s", map_s, "s")
    put("codec.sc_s", table.self_s(_is("codec.simulate"), in_pass) - map_s, "s")
    put("codec.trials", trials, "count")
    put("codec.trials_per_s", _ratio(trials, simulate_s), "1/s")
    put("codec.sc_fail_share", _ratio(counters["sc_errors"], trials), "ratio")
    put("codec.map_fail_share", _ratio(counters["map_errors"], trials), "ratio")
    decode_ids = {f"op:{op.id}" for op in ops if op.family == "decode"}
    words = sum(op.repeat * op.params["words"] for op in ops if op.family == "decode")
    decode_mask = table.mask_under(lambda nm: nm in decode_ids)
    put("codec.decode_word_s",
        _ratio(outer("codec.sc_decode_bec", mask=decode_mask)
               + outer("codec.map_decode_bec", mask=decode_mask), words), "s")

    put("rng.calls", table.calls(_layer("rng"), in_pass), "count")

    # boundprop / extval / asymptotics
    put("boundprop.steps", counters["steps"], "count")
    put("boundprop.violations", counters["violations"], "count")
    put("extval.calls", table.calls(_layer("extval"), in_pass), "count")
    put("asymptotics.orthant_s", outer("asymptotics.bivariate_orthant"), "s")
    put("asymptotics.orthant_calls",
        table.calls(_is("asymptotics.bivariate_orthant"), in_pass), "count")

    base = _pass_s(untraced)
    put("trace.overhead_share", _ratio(_pass_s(traced) - base, base), "ratio")
    put("trace.spans", len(table.nid), "count")
    return m, _gate_lines(table, ops)


def _op_rate(table, op_id, fn, amount):
    mask = table.mask_under(_is(f"op:{op_id}"))
    seconds = table.outer_s(_is(fn), mask)
    return _ratio(amount, seconds)


def _gate_lines(table, ops):
    """Predicted wall time of the acceptance criteria with 60 s gates."""
    by_id = {op.id: op for op in ops}
    lines = []
    gates = (
        ("05-MC", "polarize-sampled-n50", "becpolar.sample_paths", "paths", 100000),
        ("09", "codec-sim-c09", "codec.simulate", "trials", 10000),
        ("10", "codec-sim-c10", "codec.simulate", "trials", 10000),
    )
    for gate, op_id, fn, key, real in gates:
        op = by_id.get(op_id)
        if op is None:
            continue
        rate = _op_rate(table, op_id, fn, op.params[key] * op.repeat)
        if rate:
            predicted = real / rate
            lines.append(
                f"gate {gate}: {real} {key} at {rate:.1f} {key}/s (traced) -> "
                f"predicted {predicted:.1f} s of {GATE_S:.0f} s, "
                f"headroom {1 - predicted / GATE_S:.0%}"
            )
    return lines
