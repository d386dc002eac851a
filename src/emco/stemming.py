"""English suffix-stripping stemmer (Porter's 1980 algorithm)."""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


class PorterStemmer:
    """Deterministic Porter stemmer over lowercase ASCII words.

    Each instance memoizes the stems it has computed: a corpus repeats most
    of its words, so a fresh stemmer per ``preprocess`` computes each
    distinct word once.
    """

    def __init__(self):
        self._stems: dict[str, str] = {}

    def stem(self, word: str) -> str:
        stemmed = self._stems.get(word)
        if stemmed is None:
            stemmed = self._stems[word] = self._stem(word)
        return stemmed

    __call__ = stem

    def _stem(self, word: str) -> str:
        if len(word) <= 2:
            return word
        word = self._step1ab(word)
        word = self._step1c(word)
        word = self._replace_suffix(word, self._STEP2)
        word = self._replace_suffix(word, self._STEP3)
        word = self._step4(word)
        word = self._step5(word)
        return word

    # --- helpers -----------------------------------------------------------

    @staticmethod
    def _is_cons(word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return i == 0 or not PorterStemmer._is_cons(word, i - 1)
        return True

    @classmethod
    def _measure(cls, stem: str) -> int:
        # number of VC sequences in the stem
        m = 0
        prev_vowel = False
        for i in range(len(stem)):
            cons = cls._is_cons(stem, i)
            if cons and prev_vowel:
                m += 1
            prev_vowel = not cons
        return m

    @classmethod
    def _has_vowel(cls, stem: str) -> bool:
        return any(not cls._is_cons(stem, i) for i in range(len(stem)))

    @classmethod
    def _ends_double_cons(cls, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and cls._is_cons(word, len(word) - 1)
        )

    @classmethod
    def _ends_cvc(cls, word: str) -> bool:
        if len(word) < 3:
            return False
        if not (
            cls._is_cons(word, len(word) - 3)
            and not cls._is_cons(word, len(word) - 2)
            and cls._is_cons(word, len(word) - 1)
        ):
            return False
        return word[-1] not in "wxy"

    # --- steps -------------------------------------------------------------

    def _step1ab(self, word: str) -> str:
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies"):
            word = word[:-2]
        elif word.endswith("ss"):
            pass
        elif word.endswith("s"):
            word = word[:-1]

        if word.endswith("eed"):
            if self._measure(word[:-3]) > 0:
                word = word[:-1]
        else:
            flag = False
            if word.endswith("ed") and self._has_vowel(word[:-2]):
                word, flag = word[:-2], True
            elif word.endswith("ing") and self._has_vowel(word[:-3]):
                word, flag = word[:-3], True
            if flag:
                if word.endswith(("at", "bl", "iz")):
                    word += "e"
                elif self._ends_double_cons(word) and word[-1] not in "lsz":
                    word = word[:-1]
                elif self._measure(word) == 1 and self._ends_cvc(word):
                    word += "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._has_vowel(word[:-1]):
            word = word[:-1] + "i"
        return word

    # Each table is ordered longest suffix first, so the first match is the
    # longest one.
    _STEP2 = (
        ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
        ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
        ("biliti", "ble"), ("entli", "ent"), ("ousli", "ous"), ("ation", "ate"),
        ("alism", "al"), ("aliti", "al"), ("iviti", "ive"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
        ("ator", "ate"), ("eli", "e"),
    )

    _STEP3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ness", ""), ("ful", ""),
    )

    _STEP4 = (
        "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion",
        "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
    )

    def _replace_suffix(self, word: str, table: tuple[tuple[str, str], ...]) -> str:
        """Steps 2 and 3: replace the longest matching suffix if m(stem) > 0."""
        for suffix, repl in table:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if self._measure(stem) > 0:
                    return stem + repl
                return word
        return word

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                if self._measure(stem) > 1:
                    return stem
                return word
        return word

    def _step5(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1 or (m == 1 and not self._ends_cvc(stem)):
                word = stem
        if word.endswith("ll") and self._measure(word[:-1]) > 1:
            word = word[:-1]
        return word
