(** The one aggregation point of every lower-bound family spec: the
    bench, the [hardness] CLI, the reduction sweeps and the tests all
    consume this catalog (see {!Ch_core.Registry}).  Adding a family is a
    one-module change — export its spec(s) and append them here. *)

val all : Ch_core.Registry.spec list
(** Every registered spec, in the canonical listing order. *)

val catalog : unit -> Ch_core.Registry.t
(** The registry over {!all}, built once at module initialisation (id
    uniqueness is checked then), so concurrent first calls from pool
    domains are safe. *)
