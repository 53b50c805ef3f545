"""The outcome corpus (tests/corpus.py) against its pins, tests/corpus_pins.txt."""

import corpus


def test_every_scenario_outcome_matches_its_pin():
    # `python tests/corpus.py` rewrites the pins and names what moved.
    moved = corpus.changed(corpus.read_pins(), corpus.outcomes())
    assert not moved, f"{len(moved)} scenarios moved, first {moved[:10]}"


def test_changed_names_every_moved_added_and_dropped_scenario():
    old = {"a": "1", "b": "2", "c": "3"}
    assert corpus.changed(old, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
    assert corpus.changed(old, dict(old)) == []
