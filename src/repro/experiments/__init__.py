"""``repro.experiments`` — one driver per paper table/figure.

=======  ==============================================  ======================
ID       Paper artifact                                  Driver
=======  ==============================================  ======================
T1-T4    Tables I-IV                                     :mod:`.tables`
F2       Fig. 2 related-work landscape                   :mod:`.performance`
F7       Fig. 7 single-node portability                  :mod:`.performance`
F8/T5    Fig. 8 + Table V strong scaling                 :mod:`.performance`
F9       Fig. 9 weak scaling                             :mod:`.performance`
A4       §VIII optimized-vs-original speedups            :mod:`.performance`
F1       Fig. 1 SST / trench science results             :mod:`.science`
F6       Fig. 6 Rossby-number resolution comparison      :mod:`.science`
A1-A3    load-balance / halo / registry ablations        :mod:`.ablations`
=======  ==============================================  ======================

:mod:`.variants` holds the unoptimized variants the A2/A3 ablations
measure against (linked-list registry, element-loop packer, the Fig. 5
transposes); nothing outside this package, ``benchmarks/`` and the tests
imports it.
"""

from . import ablations, performance, science, tables

__all__ = ["tables", "performance", "science", "ablations"]
