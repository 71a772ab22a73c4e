(* The benchmark worker; see worker.ml and README.md. *)
