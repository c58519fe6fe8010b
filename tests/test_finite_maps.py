import itertools
import random

import pytest

from partsem import (
    FiniteMap,
    InvalidArgumentError,
    SetPartition,
    all_endomaps,
    all_maps,
    canonical_transversal,
    collapse_defect,
    compose,
    image,
    is_idempotent_def,
    kernel_partition,
    refines,
)


def fm(images, cod=None):
    return FiniteMap.of(images, cod)


class TestFiniteMap:
    def test_value_semantics(self):
        assert fm([2, 3, 0, 0]) == fm((2, 3, 0, 0))
        assert fm([0, 1]) != fm([0, 1], 3)
        assert hash(fm([1, 0])) == hash(fm([1, 0]))

    def test_rejects_out_of_range_images(self):
        with pytest.raises(InvalidArgumentError):
            FiniteMap(2, 2, (0, 2))
        with pytest.raises(InvalidArgumentError):
            FiniteMap(3, 3, (0, 1))

    @pytest.mark.parametrize("args", [
        (2, 2, (0, 1.0)), (2, 2, (0, True)), (2, 2, ("0", 1)),
        (2.0, 2, (0, 1)), (2, 2.0, (0, 1)), (True, 1, (0,)), (1, True, (0,)),
    ])
    def test_rejects_sizes_and_images_that_are_not_integers(self, args):
        with pytest.raises(InvalidArgumentError, match="integer"):
            FiniteMap(*args)

    def test_rejects_negative_sizes(self):
        with pytest.raises(InvalidArgumentError, match="sizes must be nonnegative"):
            FiniteMap(-1, 0, ())
        with pytest.raises(InvalidArgumentError, match="sizes must be nonnegative"):
            FiniteMap(0, -1, ())

    def test_call_reads_the_image(self):
        f = fm([2, 3, 0, 0])
        assert [f(x) for x in range(4)] == [2, 3, 0, 0]

    def test_of_rejects_images_that_are_not_integers(self):
        with pytest.raises(InvalidArgumentError, match=r"image of 1 is 1\.0, not an integer"):
            FiniteMap.of((0, 1.0), 2)

    def test_bijection_helpers(self):
        assert fm([1, 0]).is_bijective()
        assert not fm([0, 0]).is_bijective()
        assert fm([2, 0, 1]).inverse() == fm([1, 2, 0])
        with pytest.raises(InvalidArgumentError):
            fm([0, 0]).inverse()


class TestCompose:
    def test_worked_example(self):
        f = fm([2, 3, 0, 0])
        assert compose(f, f) == fm([0, 0, 2, 2])

    def test_identity_cases(self):
        g = fm([2, 3, 0, 1])
        assert compose(FiniteMap.identity(4), g) == g
        assert compose(fm([1, 1]), FiniteMap.identity(2)) == fm([1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            compose(fm([0, 1]), fm([0, 1, 2]))

    def test_associative_exhaustively_on_three_points(self):
        maps = list(all_endomaps(3))
        for f in maps:
            for g in maps:
                fg = compose(f, g)
                for h in maps:
                    assert compose(fg, h) == compose(f, compose(g, h))

    def test_associative_on_random_rectangular_chains(self):
        rng = random.Random(20240811)
        for _ in range(200):
            sizes = [rng.randint(1, 6) for _ in range(4)]
            f, g, h = (
                FiniteMap(sizes[i], sizes[i + 1],
                          tuple(rng.randrange(sizes[i + 1]) for _ in range(sizes[i])))
                for i in range(3)
            )
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestImageAndKernel:
    def test_image_examples(self):
        assert image(fm([2, 3, 0, 0])) == (0, 2, 3)
        assert image(FiniteMap.identity(3)) == (0, 1, 2)
        assert image(fm([1, 1, 1])) == (1,)

    def test_kernel_examples(self):
        assert kernel_partition(fm([2, 3, 0, 0])).classes == ((0,), (1,), (2, 3))
        assert kernel_partition(FiniteMap.identity(3)).classes == ((0,), (1,), (2,))
        assert kernel_partition(fm([1, 1, 1])).classes == ((0, 1, 2),)

    def test_transversal_examples(self):
        assert canonical_transversal(fm([2, 3, 0, 0])) == (0, 1, 2)
        assert canonical_transversal(fm([1, 1, 1, 1])) == (0,)
        assert canonical_transversal(FiniteMap.identity(4)) == (0, 1, 2, 3)

    def test_collapse_defect_examples(self):
        assert collapse_defect(fm([0, 0])) == (1, 1)
        assert collapse_defect(fm([1, 0, 2])) == (0, 0)
        assert collapse_defect(fm([0, 1], 3)) == (0, 1)

    def test_image_defect_and_transversal_counts_agree(self):
        for dom, cod in [(1, 1), (2, 3), (3, 2), (4, 4), (3, 4)]:
            for f in all_maps(dom, cod):
                c, d = collapse_defect(f)
                assert len(image(f)) + d == cod
                assert len(canonical_transversal(f)) == len(image(f))
                assert c == dom - len(canonical_transversal(f))

    def test_kernel_refines_kernel_of_composite(self):
        for f in all_endomaps(3):
            for g in all_endomaps(3):
                assert refines(kernel_partition(f), kernel_partition(compose(f, g)))


class TestRefines:
    def test_examples(self):
        p = SetPartition(4, ((0,), (1,), (2, 3)))
        q = SetPartition(4, ((0, 1), (2, 3)))
        assert refines(p, q)
        assert refines(p, p)
        assert not refines(SetPartition(2, ((0, 1),)), SetPartition(2, ((0,), (1,))))

    def test_ground_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            refines(SetPartition(2, ((0, 1),)), SetPartition(3, ((0, 1, 2),)))


class TestIdempotent:
    def test_examples(self):
        assert is_idempotent_def(fm([0, 0, 2, 2]))
        assert is_idempotent_def(FiniteMap.identity(4))
        assert not is_idempotent_def(fm([2, 3, 0, 0]))

    def test_requires_endomap(self):
        with pytest.raises(InvalidArgumentError):
            is_idempotent_def(fm([0, 1], 3))
        with pytest.raises(InvalidArgumentError):
            is_idempotent_def(fm([0, 1, 1], 2))

    def test_builds_no_map(self, monkeypatch):
        """The definition is read on image tuples: no composite is built."""
        maps, built = list(all_endomaps(3)), []
        real = FiniteMap.__post_init__
        monkeypatch.setattr(FiniteMap, "__post_init__", lambda m: built.append(m) or real(m))
        assert sum(map(is_idempotent_def, maps)) == 10
        assert built == []

    def test_matches_fixing_the_image_and_the_composite(self):
        for n in range(1, 5):
            for f in all_endomaps(n):
                fixes = all(f.images[y] == y for y in image(f))
                assert is_idempotent_def(f) == fixes == (compose(f, f) == f)


def test_endomaps_have_equal_collapse_and_defect_up_to_five_points():
    for n in range(1, 6):
        for images in itertools.product(range(n), repeat=n):
            c, d = collapse_defect(FiniteMap(n, n, images))
            assert c == d


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition(4, ((3, 2), (1, 0)))
        assert p.classes == ((0, 1), (2, 3))
        assert p == SetPartition(4, ((0, 1), (2, 3)))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SetPartition(3, ((0, 1),))  # does not cover
        with pytest.raises(InvalidArgumentError):
            SetPartition(3, ((0, 1), (1, 2)))  # overlap
        with pytest.raises(InvalidArgumentError):
            SetPartition(2, ((0, 1), ()))  # empty class
        with pytest.raises(InvalidArgumentError, match=r"element 2 outside \[0, 2\)"):
            SetPartition(2, ((0,), (1, 2)))

    def test_length_and_repr(self):
        p = SetPartition(5, ((4, 2), (0,), (3, 1)))
        assert len(p) == 3
        assert repr(p) == "{0|1,3|2,4}"

    @pytest.mark.parametrize("classes", [
        ((0,), (True,)), ((0,), (1.0,)), ((0, "a"),), ((1, 0.5),),
    ])
    def test_rejects_points_that_are_not_integers(self, classes):
        with pytest.raises(InvalidArgumentError, match="not an integer"):
            SetPartition(2, classes)
