(* Listing order is the historical `hardness list` order: the Section 2
   exact families, the Section 3 spanner, then the Section 4 gap
   families. *)
let all =
  Mds_lb.specs @ Maxis_lb.specs @ Hampath_lb.specs @ Steiner_lb.specs
  @ Maxcut_lb.specs @ Spanner_lb.specs @ Maxis_approx_lb.specs
  @ Kmds_lb.specs @ Steiner_approx_lb.specs @ Mds_restricted_lb.specs
  @ Bitgadget_lb.specs

(* Built eagerly at module initialisation: a lazy catalog first forced
   from several pool domains at once raises CamlinternalLazy.Undefined
   on OCaml 5. *)
let registry = Ch_core.Registry.of_specs all
let catalog () = registry
