from smotekit.rng import child_seed, generator


def test_same_labels_same_stream():
    a = generator(7, "smote").random(5)
    b = generator(7, "smote").random(5)
    assert a.tolist() == b.tolist()


def test_different_labels_diverge():
    a = generator(7, "smote").random(5)
    b = generator(7, "under-sample").random(5)
    c = generator(8, "smote").random(5)
    assert a.tolist() != b.tolist()
    assert a.tolist() != c.tolist()


def test_labels_are_order_sensitive():
    assert generator(1, "a", "b").random() != generator(1, "b", "a").random()


def test_label_concatenation_does_not_collide():
    # ("ab", "c") and ("a", "bc") must map to distinct streams
    assert generator(1, "ab", "c").random() != generator(1, "a", "bc").random()
    assert child_seed(1, "ab", "c") != child_seed(1, "a", "bc")


def test_child_seed_is_a_stable_int():
    a = child_seed(3, "over")
    b = child_seed(3, "over")
    assert isinstance(a, int)
    assert a == b
    assert 0 <= a < 2**64
    assert child_seed(3, "under") != a


def test_mixed_label_types():
    a = generator(2, "fold", 3).random()
    b = generator(2, "fold", "3").random()
    assert a == b  # labels are stringified; documents the scheme


def test_streams_are_pinned():
    # the label-path hash is the scheme every seeded output rests on
    assert child_seed(3, "over") == 9853768490746838562
    assert generator(7, "fold", 3).integers(0, 2**63) == 4489125461130304348
