"""Every field of the configs the tuners return, pinned bit for bit.

Each entry is the ``repr`` of every :class:`L2PConfig` field that
``tune_ope`` or ``tune_oco`` returned for its arguments, then of its
derived ``eta_accounted``, recorded before the two tuners shared one
verification loop. The shapes cover the ``B/T`` floor on p, candidates
that shrink eta once or more, the calls of acceptance criteria 04, 06,
07, 09 and 10, the ope-b1 benchmark workload, and a ball config
accepted with its accounted eta above ``ETA_MAX``.
"""

from dataclasses import fields

import pytest

from l2p.accountant import TunerError, tune_oco, tune_ope

OPE_PINS = {
    (1000000, 10, 1.0, 1e-06): (
        '1000000', '1', '5.49175190818551e-05', '0.000549175190818551', '0.0', '5e-13', 'None',
        'None', 'None', 'None', 'None'
    ),
    (10000, 5, 100.0, 1e-06): (
        '10000', '1', '0.0005509617190867486', '0.0001', '0.0', '4.9999999999999995e-11',
        'None', 'None', 'None', 'None', 'None'
    ),
    (20, 2, 0.1, 0.05): (
        '20', '10', '0.003311796805871158', '0.5', '0.0', '0.00125', 'None', 'None', 'None',
        'None', 'None'
    ),
    (50, 2, 0.05, 0.05): (
        '50', '20', '0.001333295459181073', '0.4', '0.0', '0.0005', 'None', 'None', 'None',
        'None', 'None'
    ),
    (10, 2, 0.5, 0.05): (
        '10', '2', '0.01242266490280792', '0.2484532980561584', '0.0', '0.0025', 'None', 'None',
        'None', 'None', 'None'
    ),
    (20000, 10, 1, 1e-06): (
        '20000', '1', '0.0004523728228932503', '0.0045237282289325035', '0.0',
        '2.4999999999999998e-11', 'None', 'None', 'None', 'None', 'None'
    ),
    (2000, 5, 0.5, 0.0001): (
        '2000', '2', '0.0008437082559651033', '0.016874165119302065', '0.0',
        '2.5000000000000002e-08', 'None', 'None', 'None', 'None', 'None'
    ),
    (10000, 4, 0.5, 0.01): (
        '10000', '2', '0.0008522377928600906', '0.01704475585720181', '0.0', '5e-07', 'None',
        'None', 'None', 'None', 'None'
    ),
    (100000, 10, 0.05, 1e-06): (
        '100000', '20', '5.772203494059434e-05', '0.011544406988118866', '0.0', '5e-12', 'None',
        'None', 'None', 'None', 'None'
    ),
    (100000, 10, 0.1, 1e-06): (
        '100000', '10', '9.162801898644462e-05', '0.00916280189864446', '0.0', '5e-12', 'None',
        'None', 'None', 'None', 'None'
    ),
    (100000, 10, 0.2, 1e-06): (
        '100000', '5', '9.472606022422966e-05', '0.004736303011211482', '0.0', '5e-12', 'None',
        'None', 'None', 'None', 'None'
    ),
    (100000, 10, 0.5, 1e-06): (
        '100000', '2', '0.0001894521204484593', '0.003789042408969186', '0.0', '5e-12', 'None',
        'None', 'None', 'None', 'None'
    ),
    (100000, 10, 1.0, 1e-06): (
        '100000', '1', '0.0001894521204484593', '0.001894521204484593', '0.0', '5e-12', 'None',
        'None', 'None', 'None', 'None'
    ),
    (48, 10, 1, 1e-06): (
        '48', '1', '0.006191703289604369', '0.06191703289604369', '0.0',
        '1.0416666666666666e-08', 'None', 'None', 'None', 'None', 'None'
    ),
    (2100, 10, 1.0, 1e-06): (
        '2100', '1', '0.0015426350450013938', '0.015426350450013938', '0.0',
        '2.380952380952381e-10', 'None', 'None', 'None', 'None', 'None'
    ),
    (10, 10, 0.3, 1e-06): (
        '10', '3', '0.0032263175937416503', '0.3', '0.0', '5e-08', 'None', 'None', 'None',
        'None', 'None'
    ),
    (100, 2, 0.05, 1e-06): (
        '100', '20', '0.0007936779804331719', '0.2', '0.0', '5e-09', 'None', 'None', 'None',
        'None', 'None'
    ),
    (30, 10, 2.0, 0.05): (
        '30', '1', '0.021654374648751498', '0.10827187324375749', '0.0',
        '0.0008333333333333334', 'None', 'None', 'None', 'None', 'None'
    ),
}
OCO_PINS = {
    (10000, 3, 1.0, 1e-06, 1.0, 1.0): (
        '10000', '1', '0.00012598852610636133', '0.0020158164177017813',
        '1.643213117986731e-16', '2.4999999999999998e-11', '3.31130715108839e-05',
        '41722.22608048689', '0.5', '1.0', '0.0004849370060226307'
    ),
    (10000, 4, 0.5, 1e-06, 1.0, 1.0): (
        '10000', '1', '7.936779804331721e-05', '0.0025397695373861507', '1.320985079371701e-16',
        '2.4999999999999998e-11', '2.4086969990098174e-05', '76475.70761920183', '0.5', '1.0',
        '0.0003063896536754418'
    ),
    (10000, 4, 0.5, 1e-06, 2.0, 2.0): (
        '10000', '1', '7.936779804331721e-05', '0.0025397695373861507', '1.320985079371701e-16',
        '2.4999999999999998e-11', '6.0217424975245436e-06', '76475.70761920183', '1.0', '2.0',
        '0.0003063896536754418'
    ),
    (10000, 3, 0.5, 1e-06, 1.0, 2.0): (
        '10000', '1', '7.936779804331721e-05', '0.0025397695373861507', '1.320985079371701e-16',
        '2.4999999999999998e-11', '1.0429963955809212e-05', '33114.952785309964', '1.0', '1.0',
        '0.0003063896536754418'
    ),
    (200, 3, 1.0, 1e-06, 1.0, 1.0): (
        '200', '1', '0.0005591422978661165', '0.008946276765857865', '3.9180281324905885e-14',
        '1.25e-09', '0.00011146075050396551', '7130.2911687637525', '0.5', '1.0',
        '0.001986796901254446'
    ),
    (10, 2, 8.0, 0.05, 1.0, 1.0): (
        '10', '1', '0.05', '0.1', '2.15192331357029e-06', '0.00125', '0.005364915065723369',
        '42.919320525786944', '0.5', '1.0', '0.11747753828268197'
    ),
    (1000, 20, 8.0, 0.05, 1.0, 1.0): (
        '1000', '1', '0.005048726495061408', '0.005048726495061408', '8.73473081470462e-10',
        '1.25e-05', '0.0029671214155699115', '2328.0999701373275', '0.5', '1.0',
        '0.01482610896563853'
    ),
}


def _reprs(config):
    names = [f.name for f in fields(config)] + ["eta_accounted"]
    return tuple(repr(getattr(config, name)) for name in names)


@pytest.mark.parametrize("args", list(OPE_PINS), ids=repr)
def test_tune_ope_pinned(args):
    assert _reprs(tune_ope(*args)) == OPE_PINS[args]


@pytest.mark.parametrize("args", list(OCO_PINS), ids=repr)
def test_tune_oco_pinned(args):
    assert _reprs(tune_oco(*args)) == OCO_PINS[args]


_NO_BALL = "ball runs need beta, lam, radius and lipschitz, all positive"
_SHRINKS = "no candidate met the target within 10 shrinks"


@pytest.mark.parametrize(
    "tuner, args, message",
    [
        (tune_ope, (10, 2, 1e-6, 1e-6),
         "no feasible experts tuning for T=10, eps=1e-06, delta=1e-06: " + _SHRINKS),
        (tune_oco, (10, 2, 1e-3, 1e-6, 1.0, 1.0),
         "no feasible ball tuning for T=10, eps=0.001, delta=1e-06: " + _SHRINKS),
        # the batch length, 1 / eps or 1 / (2 eps log(1/delta)), is past a double's range
        (tune_ope, (400, 3, 1e-310, 1e-6),
         "no feasible experts tuning for T=400, eps=1e-310, delta=1e-06: " + _SHRINKS),
        # and beta underflows to 0, so no candidate is a config
        (tune_oco, (400, 3, 1e-310, 1e-6, 1.0, 1.0),
         "no feasible ball tuning for T=400, eps=1e-310, delta=1e-06: " + _NO_BALL),
        # 2 eps log(1/delta) underflows to 0
        (tune_oco, (400, 3, 5e-324, 1.0 - 1e-15, 1.0, 1.0),
         "no feasible ball tuning for T=400, eps=5e-324, delta=0.999999999999999: " + _NO_BALL),
        # log(T / delta) is infinite, so the nominal step is 0
        (tune_oco, (400, 3, 1.0, 5e-324, 1.0, 1.0),
         "no feasible ball tuning for T=400, eps=1.0, delta=5e-324: "
         "ball accounting needs eta > 0, p in (0, 1] and delta > 0"),
    ],
)
def test_infeasible_message_pinned(tuner, args, message):
    with pytest.raises(TunerError) as info:
        tuner(*args)
    assert str(info.value) == message
