import json

from bench_e2e.trace import STEP, Tracer


def record(tracer):
    with tracer.span(STEP, "w/dyn/traced0/0"):
        with tracer.span("data.feed_dict"):
            pass
        with tracer.span("session.run"):
            with tracer.span("inner"):
                pass


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    record(tracer)
    assert tracer.spans == [] and tracer.coverage() == 1.0


def test_spans_share_the_step_id_and_nest():
    tracer = Tracer()
    tracer.enabled = True
    record(tracer)
    names = [s[0] for s in tracer.spans]
    assert names == [STEP, "data.feed_dict", "session.run", "inner"]
    assert {s[4] for s in tracer.spans} == {"w/dyn/traced0/0"}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.spans = [[STEP, 0, 100, -1, "x"], ["a", 10, 40, 0, "x"],
                    ["b", 50, 90, 0, "x"], ["c", 60, 70, 2, "x"]]
    assert tracer.self_ns() == [30, 30, 30, 10]
    assert tracer.coverage() == 0.7
    assert tracer.durations("a") == {"x": [30 / 1e9]}
    assert tracer.durations("a", "other/") == {}


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    tracer = Tracer()
    tracer.enabled = True
    record(tracer)
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 4
    assert all({"name", "ts", "dur", "pid", "tid"} <= e.keys()
               for e in complete)
    assert complete[0]["args"]["step"] == "w/dyn/traced0/0"
    # one named viewer row per config
    assert [e["args"]["name"] for e in events if e["ph"] == "M"] == ["dyn"]
