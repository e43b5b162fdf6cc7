"""The paper's example applications (§4), built on the structures layer.

- :mod:`repro.apps.bulletin` — bulletin board via top-level independent
  actions (+ compensation), §4(i).
- :mod:`repro.apps.billing` — charging resource usage that survives the
  client action's abort, §4(iii).
- :mod:`repro.apps.make` — fault-tolerant distributed make with
  serializing actions, §4(iv) / fig. 8.
- :mod:`repro.apps.meeting` — meeting scheduling over personal diaries with
  glued actions, §4(v) / fig. 9.

Make and the meeting scheduler are each one generator body with two
calling conventions: the cluster engines run it as a simulation process,
the local ones through :mod:`repro.apps.trampoline`.

(Name-server access, §4(ii), lives in :mod:`repro.replication.nameserver`.)
"""
