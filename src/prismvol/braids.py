"""Braid words, twisted torus knot braids, and Bennequin genus bounds.

A braid word on n strands is a sequence of nonzero letters, where letter i
(1 <= i <= n-1) is the Artin generator crossing strands i and i+1 and -i is
its inverse.  The twisted torus braid T(p, q; r, s) is the torus braid
(s_1 ... s_{p-1})^q followed by s full twists on the first r strands,
(s_1 ... s_{r-1})^{r*s}.
"""

from __future__ import annotations

from .reader import Record, check, read, require_int


class BraidWord(Record):
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        require_int(strands=self.strands)
        if self.strands < 2:
            raise ValueError("a braid needs at least 2 strands")
        letters = check(self.letters, [int], "letters")
        for letter in letters:
            if letter == 0 or abs(letter) >= self.strands:
                raise ValueError(
                    f"letter {letter} is not a generator index for {self.strands} strands"
                )
        object.__setattr__(self, "letters", letters)

    def to_json(self) -> dict:
        return {"strands": self.strands, "letters": list(self.letters)}

    def artin(self) -> str:
        return " ".join(
            f"s{l}" if l > 0 else f"s{-l}^-1" for l in self.letters
        )


def word_from_json(data: object) -> BraidWord:
    return BraidWord(*read(data, "braid word", {"strands": int, "letters": [int]}))


def _power_block(top: int, exponent: int) -> list[int]:
    # (s_1 ... s_top)^exponent; the inverse reverses the block and flips signs
    if exponent >= 0:
        return list(range(1, top + 1)) * exponent
    return [-i for i in range(top, 0, -1)] * (-exponent)


def twisted_torus_braid(p: int, q: int, r: int, s: int) -> BraidWord:
    """The braid (s_1 ... s_{p-1})^q (s_1 ... s_{r-1})^{r*s} on p strands."""
    require_int(p=p, q=q, r=r, s=s)
    if p < 2:
        raise ValueError("p must be at least 2")
    if not 2 <= r <= p:
        raise ValueError("r must satisfy 2 <= r <= p")
    letters = _power_block(p - 1, q) + _power_block(r - 1, r * s)
    return BraidWord(p, tuple(letters))


def closure_components(w: BraidWord) -> int:
    """Number of components of the braid closure.

    Each letter acts as the transposition of adjacent positions (the sign
    does not matter at the permutation level); components are the cycles of
    the induced permutation of strand endpoints.
    """
    current = list(range(w.strands))
    for letter in w.letters:
        i = abs(letter) - 1
        current[i], current[i + 1] = current[i + 1], current[i]
    seen = [False] * w.strands
    cycles = 0
    for start in range(w.strands):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = current[j]
    return cycles


def bennequin_chi(w: BraidWord) -> int:
    """Euler characteristic of the Bennequin surface of a positive word.

    The surface is n disks joined by one band per letter, so
    chi = strands - length.  For positive braid words it realizes the genus
    of the closure, which is why mixed or negative words are refused.
    """
    if any(letter < 0 for letter in w.letters):
        raise ValueError("Bennequin chi is only taken on all-positive words")
    return w.strands - len(w.letters)


def bennequin_genus(w: BraidWord) -> int:
    """Genus of the closure of a positive braid word with connected closure."""
    chi = bennequin_chi(w)
    if closure_components(w) != 1:
        raise ValueError("genus is reported only for a 1-component closure")
    return (1 - chi) // 2  # 1 - chi is even (test_genus_parity_consistency)
