"""Every stack-taking function keeps the stack contract of its row in ``stack_cases.py``."""

import math

import numpy as np
import pytest

from stack_cases import CASES, item, replaced

BAD = [(row, bad) for row in CASES for bad in row.bad]


@pytest.mark.parametrize("row", CASES, ids=[row.name for row in CASES])
def test_a_stack_equals_its_items(row):
    rng = np.random.default_rng(2024)
    for arg in row.args:
        for shape in row.shapes:
            stack = row.good(arg, shape, rng)
            stacked = row.call(arg, *stack)
            items = [row.call(arg, *item(stack, shape, k)) for k in range(math.prod(shape))]
            one = items[0] if items else row.call(arg, *item(row.good(arg, (1,), rng), (1,), 0))
            row.equal(stacked, items, shape, one)
            if row.entropy:
                assert all(type(s) is float and math.copysign(1.0, s) == 1.0 for s in items)
                assert (np.copysign(1.0, stacked) == 1.0).all()


@pytest.mark.parametrize("row, bad", BAD, ids=[f"{row.name}-{bad.label}" for row, bad in BAD])
def test_a_bad_item_raises_as_it_does_alone(row, bad):
    rng = np.random.default_rng(2024)
    for arg in row.args:
        for size in (1, 3, 16):
            good = row.good(arg, (size,), rng)
            for position in sorted({0, size // 2, size - 1}):
                broken = bad.make(arg, item(good, (size,), position))
                if broken is None:
                    continue
                stack = replaced(good, position, broken)
                if bad.then and position < size - 1:
                    stack = replaced(stack, size - 1, bad.then(arg, item(good, (size,), size - 1)))
                with pytest.raises(bad.error) as alone:
                    row.call(arg, *broken)
                with pytest.raises(bad.error) as stacked:
                    row.call(arg, *stack)
                assert type(alone.value) is type(stacked.value) is bad.error
                assert not bad.message or str(stacked.value) == str(alone.value)
