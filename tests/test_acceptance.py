"""Acceptance gate: one test per check of f2dyn.selftest.CHECKS, the table
that `f2dyn selftest` runs.  selftest.judge times each check against its
budget; the test records one `criterion N: PASS/FAIL (...)` line in the run
summary and fails with the check's message.
"""

import conftest

from f2dyn import selftest


def _criterion_test(number, title, fn, budget):
    def test():
        verdict = selftest.judge(fn, budget)
        line = (f"criterion {number}: {'PASS' if verdict.ok else 'FAIL'} "
                f"({verdict.elapsed:.2f}s / {budget:.0f}s budget) "
                f"{verdict.detail}")
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        if not verdict.ok:
            raise AssertionError(line) from verdict.error

    test.__doc__ = title
    return test


# named test_criterion_<N>_<check name without "check_">, so each criterion
# keeps one stable test id
for _number, (_title, _fn, _budget) in enumerate(selftest.CHECKS, start=1):
    _name = f"test_criterion_{_number}_{_fn.__name__.removeprefix('check_')}"
    globals()[_name] = _criterion_test(_number, _title, _fn, _budget)
