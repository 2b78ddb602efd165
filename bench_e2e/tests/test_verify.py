import numpy as np

from bench_e2e.verify import TOL, Checker


def outputs():
    return {"loss": np.float32(0.69),
            "logits": np.array([[0.25, -0.5], [1.5, 0.125]], np.float32)}


def test_identical_outputs_are_a_passed_operation():
    checker = Checker()
    assert checker.check("step", outputs(), outputs(), outputs())
    assert (checker.attempted, checker.failed, checker.correct) == (1, 0, True)


def test_perturbing_one_expected_logit_is_a_failed_operation():
    checker = Checker()
    reference = outputs()
    reference["logits"][1, 0] = np.nextafter(reference["logits"][1, 0],
                                             np.float32(2))
    assert not checker.check("step", outputs(), reference, outputs())
    assert (checker.attempted, checker.failed) == (1, 1)
    assert not checker.correct
    assert "not bit-identical" in checker.messages[0]


def test_agreement_is_not_mistaken_for_truth():
    # the configs agree bit for bit, but the numpy oracle says otherwise
    checker = Checker()
    oracle = outputs()
    oracle["logits"][0, 1] += 10 * TOL
    assert not checker.check("step", outputs(), outputs(), oracle)
    assert "off the numpy oracle" in checker.messages[0]
    # within tolerance: float32 summed in another order
    oracle = outputs()
    oracle["logits"][0, 1] += TOL / 10
    assert checker.check("step", outputs(), outputs(), oracle)


def test_missing_output_shape_change_and_raise_all_fail():
    checker = Checker()
    partial = outputs()
    del partial["loss"]
    assert not checker.check("a", partial, outputs(), outputs())
    reshaped = outputs()
    reshaped["logits"] = reshaped["logits"].reshape(4)
    assert not checker.check("b", reshaped, outputs(), outputs())
    checker.raised("c", RuntimeError("boom"))
    assert not checker.expect("d", False, "tickets leaked")
    assert (checker.attempted, checker.failed) == (4, 4)


def test_no_operations_is_not_correct():
    assert not Checker().correct
