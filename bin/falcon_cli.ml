(* FALCON command-line tool: key generation, signing and verification.
   Keys and signatures are files in Falcon.Keycodec's binary format, the
   one of a trace store's public.key and secret.key sidecars.

     dune exec bin/falcon_cli.exe -- keygen -n 512 -s myseed -o key
     dune exec bin/falcon_cli.exe -- sign -k key.sk -m "hello" -o sig.bin
     dune exec bin/falcon_cli.exe -- verify -k key.pk -m "hello" -i sig.bin *)

open Falcon

(* Exit statuses follow the repository-wide convention in Cli_common:
   malformed key/signature files and bad parameters exit with the
   data-error status and a message, never a backtrace.  No subcommand
   takes the attack pipeline's -j/--templates/--log flags. *)

let load what decode path =
  match decode (Cli_common.read_file path) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: not a FALCON %s" path what)

let cmd_keygen n seed out =
  Cli_common.with_errors @@ fun () ->
  let sk, pk = Scheme.keygen ~n ~seed in
  Cli_common.write_file (out ^ ".sk") (Keycodec.encode_secret sk.kp);
  Cli_common.write_file (out ^ ".pk") (Keycodec.encode_public pk);
  Printf.printf "wrote %s.sk and %s.pk (FALCON-%d)\n" out out n;
  0

(* The signer's salt and ffSampling randomness come from 32 bytes of
   the OS entropy source, so no two runs share a stream; without them
   there is no signature. *)
let entropy_seed () =
  try
    let ic = open_in_bin "/dev/urandom" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic 32)
  with Sys_error _ | End_of_file ->
    failwith "sign: cannot read 32 bytes from /dev/urandom to seed the signer"

let cmd_sign key msg out =
  Cli_common.with_errors @@ fun () ->
  let sk = Scheme.secret_of_keypair (load "secret key" Keycodec.decode_secret key) in
  let rng = Prng.of_seed (entropy_seed ()) in
  let sg = Scheme.sign ~rng sk msg in
  Cli_common.write_file out (Keycodec.encode_signature sk.params sg);
  Printf.printf "wrote %s (%d bytes of signature body)\n" out (String.length sg.body);
  0

let cmd_verify key msg input =
  Cli_common.with_errors @@ fun () ->
  let pk = load "public key" Keycodec.decode_public key in
  let sg = load "signature" (Keycodec.decode_signature pk.params) input in
  if Scheme.verify pk msg sg then begin
    print_endline "signature OK";
    0
  end
  else begin
    print_endline "signature INVALID";
    1
  end

open Cmdliner

let n_arg =
  Arg.(value & opt int 512 & info [ "n" ] ~docv:"N" ~doc:"Ring degree (power of two).")

let seed_arg =
  Arg.(value & opt string "falcon cli seed" & info [ "s"; "seed" ] ~doc:"Keygen seed.")

let out_arg d = Arg.(value & opt string d & info [ "o"; "out" ] ~doc:"Output path.")
let key_arg = Arg.(required & opt (some string) None & info [ "k"; "key" ] ~doc:"Key file.")
let msg_arg = Arg.(required & opt (some string) None & info [ "m"; "message" ] ~doc:"Message.")
let sig_arg = Arg.(value & opt string "sig.bin" & info [ "i"; "input" ] ~doc:"Signature file.")

let keygen_cmd =
  Cmd.v (Cmd.info "keygen" ~doc:"Generate a FALCON key pair")
    Term.(const cmd_keygen $ n_arg $ seed_arg $ out_arg "key")

let sign_cmd =
  Cmd.v (Cmd.info "sign" ~doc:"Sign a message")
    Term.(const cmd_sign $ key_arg $ msg_arg $ out_arg "sig.bin")

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"Verify a signature")
    Term.(const cmd_verify $ key_arg $ msg_arg $ sig_arg)

let () =
  let doc = "FALCON post-quantum signatures (Falcon Down reproduction)" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "falcon_cli" ~doc) [ keygen_cmd; sign_cmd; verify_cmd ]))
